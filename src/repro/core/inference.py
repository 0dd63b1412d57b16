"""T-Crowd truth inference (Section 4, Algorithm 1).

The model couples every worker's answers on *all* columns — categorical and
continuous — through a single per-worker variance ``phi_u``, per-row
difficulty ``alpha_i`` and per-column difficulty ``beta_j``.  Inference is an
EM loop:

* **E-step** (Eq. 4): per-cell truth posteriors.  Continuous cells get a
  Gaussian posterior whose precision is the sum of the answer precisions
  ``1 / (alpha_i beta_j phi_u)`` plus the prior precision; categorical cells
  get a multinomial posterior proportional to the product of per-answer
  likelihoods under Eq. 3.
* **M-step** (Eq. 5): maximise the expected complete-data log-likelihood over
  ``alpha, beta, phi`` by gradient ascent.  We optimise in log-space (which
  guarantees positivity), use analytic gradients, and renormalise the
  geometric mean of ``alpha`` and ``beta`` to one after each step because the
  likelihood only depends on the products ``alpha_i beta_j phi_u``.

The M-step is bounded L-BFGS-B over the box ``[-10, 10]`` of every
log-parameter.  :func:`_lbfgsb_box` drives SciPy's reverse-communication
routine ``setulb`` directly, with the box and workspaces built as whole
arrays; it runs only when ``setulb`` has the exact signature it was written
against (:func:`_setulb_matches`), and any other SciPy build fits through
the public ``optimize.fmin_l_bfgs_b`` with the same settings, which gives
the same bits.  The per-answer terms of Eq. 5 that change only at an E-step
(expected squared residuals, the posterior probability that a categorical
answer is right) are computed once per E-step on the workspace, not once per
objective evaluation.

Continuous columns are internally standardised (z-scored using the collected
answers) so that a single window parameter ``epsilon`` is meaningful across
columns of very different scales; all reported posteriors and estimates are
transformed back to the original scale.  Entropy *differences* — the
information-gain criterion of Section 5 — are invariant under this affine
transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import optimize

from repro.core.answers import AnswerSet, IndexedAnswers
from repro.core.posteriors import CategoricalPosterior, GaussianPosterior, Posterior
from repro.core.schema import TableSchema
from repro.core.worker_model import WorkerModel
from repro.utils.exceptions import ConfigurationError, InferenceError
from repro.utils.numerics import normalize_log_probs, safe_erf
from repro.utils.validation import require_positive

try:  # SciPy's private L-BFGS-B extension; see _setulb_matches.
    from scipy.optimize import _lbfgsb
except ImportError:  # pragma: no cover - depends on the SciPy build
    _lbfgsb = None

#: Clip range for worker qualities inside likelihood evaluations.
_Q_FLOOR = 1e-9
#: Lower bound of any variance handled by the optimiser.
VARIANCE_FLOOR = 1e-8
_VAR_FLOOR = VARIANCE_FLOOR
#: Signature of the reverse-communication L-BFGS-B routine that
#: :func:`_lbfgsb_box` was written against (SciPy 1.17).
_SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
)


def _setulb_matches() -> bool:
    """True if this SciPy's ``setulb`` has the signature the driver expects.

    A platform check: any other build fits through the public
    ``optimize.fmin_l_bfgs_b`` instead.
    """
    return getattr(getattr(_lbfgsb, "setulb", None), "__doc__", None) == (
        _SETULB_SIGNATURE
    )


def _lbfgsb_box(func, x0: np.ndarray, args: tuple, maxiter: int) -> np.ndarray:
    """Minimise ``func`` over the box ``[-10, 10]^n`` by L-BFGS-B; return x.

    ``func(x, *args)`` returns ``(f, gradient)``.  This is the loop of
    SciPy's ``_minimize_lbfgsb`` run over the reverse-communication routine
    ``setulb`` (Zhu, Byrd, Lu & Nocedal, ACM TOMS 23(4), 1997, Algorithm
    778) with the settings of ``optimize.fmin_l_bfgs_b(func, x0, args=args,
    bounds=[(-10.0, 10.0)] * n, maxiter=maxiter)``: ``m = 10``,
    ``factr = 1e7``, ``pgtol = 1e-5``, ``maxls = 20``, at most 15000
    evaluations.  The box, ``nbd`` and the workspaces are built as whole
    arrays, where the public call converts the box in O(n) Python on every
    call, so the solver receives byte-identical inputs and returns the same
    ``x``.  Only valid when :func:`_setulb_matches`.
    """
    n = len(x0)
    m = 10
    x = np.clip(np.asarray(x0, dtype=np.float64), -10.0, 10.0)
    lower = np.full(n, -10.0)
    upper = np.full(n, 10.0)
    nbd = np.full(n, 2, dtype=np.int32)  # 2: bounded below and above
    f = np.array(0.0)
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    iterations = evaluations = 0
    while True:
        _lbfgsb.setulb(
            m, x, lower, upper, nbd, f, g, 1e7, 1e-5, wa, iwa, task,
            lsave, isave, dsave, 20, ln_task,
        )
        if task[0] == 3:  # FG: the solver wants f and g at x
            f, g = func(x, *args)
            evaluations += 1
        elif task[0] == 1:  # NEW_X: an iteration finished
            iterations += 1
            if iterations >= maxiter:
                task[0], task[1] = 5, 504  # STOP: iteration limit
            elif evaluations > 15000:
                task[0], task[1] = 5, 502  # STOP: evaluation limit
        else:  # converged, stopped or failed: x is the answer
            return x


def column_label_counts(schema: TableSchema) -> np.ndarray:
    """Label count of every column (0 for continuous columns)."""
    return np.array([len(column.labels) for column in schema.columns], dtype=np.int64)


def label_row_totals(probs: np.ndarray, label_counts: np.ndarray) -> np.ndarray:
    """Sum of each row's first ``label_counts[i]`` slots, bit for bit.

    Equals ``probs[i, :label_counts[i]].sum()`` row by row: rows are summed
    in groups of equal label count over exactly their own slots, because
    summing the zero padding too changes numpy's pairwise summation order
    once the padded width reaches 8.
    """
    totals = np.empty(len(probs))
    for count in np.unique(label_counts):
        rows = np.flatnonzero(label_counts == count)
        totals[rows] = probs[rows, :count].sum(axis=1)
    return totals


def _object_array(values) -> np.ndarray:
    """1-D object array holding ``values`` as-is (labels may be any type)."""
    array = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        array[index] = value
    return array


@dataclass
class InferenceResult:
    """Output of :meth:`TCrowdModel.fit`.

    Exposes the per-cell truth posteriors, the estimated worker qualities and
    cell difficulties, and the diagnostics (objective trace, iteration count)
    used by the efficiency experiments (Figure 12).

    The posteriors of the answered cells are stored column-wise, in
    original scale, keyed by the row-major cell key
    ``row * num_columns + col`` in ascending order:

    * ``cont_keys`` / ``cont_mean`` / ``cont_var`` — the Gaussian
      posteriors of the answered continuous cells;
    * ``cat_keys`` / ``cat_probs`` — the label probabilities of the
      answered categorical cells, one row per cell, zero-padded past the
      cell's label count (the padded width is an implementation detail:
      nothing that reads the result depends on it).

    :meth:`posterior` and :meth:`estimate` are views over these arrays.
    """

    schema: TableSchema
    worker_model: WorkerModel
    worker_ids: List[str]
    alpha: np.ndarray
    beta: np.ndarray
    phi: np.ndarray
    column_scale: np.ndarray
    column_offset: np.ndarray
    cont_keys: np.ndarray
    cont_mean: np.ndarray
    cont_var: np.ndarray
    cat_keys: np.ndarray
    cat_probs: np.ndarray
    objective_trace: List[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False
    stopped_by: str = "max_iterations"

    def __post_init__(self) -> None:
        self._worker_index = {worker: u for u, worker in enumerate(self.worker_ids)}
        self._codes: Optional[np.ndarray] = None
        self._point_estimates: Optional[list] = None

    @property
    def iterations_run(self) -> int:
        """Number of EM iterations the fit actually ran (see ``stopped_by``)."""
        return self.n_iterations

    # -- truth estimates ----------------------------------------------------

    def answered_cells(self) -> List[Tuple[int, int]]:
        """Cells with a fitted posterior: continuous cells, then categorical
        cells, each in row-major order."""
        num_cols = self.schema.num_columns
        keys = np.concatenate([self.cont_keys, self.cat_keys]).tolist()
        return [(key // num_cols, key % num_cols) for key in keys]

    def _slot(self, keys: np.ndarray, row: int, col: int) -> int:
        """Index of cell ``(row, col)`` in ``keys``, or -1 if absent."""
        schema = self.schema
        if not (0 <= row < schema.num_rows and 0 <= col < schema.num_columns):
            return -1
        key = row * schema.num_columns + col
        slot = int(np.searchsorted(keys, key))
        return slot if slot < len(keys) and keys[slot] == key else -1

    def posterior(self, row: int, col: int) -> Posterior:
        """Truth posterior of cell ``(row, col)``; prior-based if unanswered."""
        column = self.schema.columns[col]
        if column.is_categorical:
            slot = self._slot(self.cat_keys, row, col)
            if slot < 0:
                return CategoricalPosterior.uniform(column.labels)
            return CategoricalPosterior.from_normalized(
                column.labels, self.cat_probs[slot, : column.num_labels]
            )
        slot = self._slot(self.cont_keys, row, col)
        if slot < 0:
            prior_var = max(float(self.column_scale[col]) ** 2, _VAR_FLOOR)
            return GaussianPosterior(float(self.column_offset[col]), prior_var)
        return GaussianPosterior(
            float(self.cont_mean[slot]), float(self.cont_var[slot])
        )

    def estimate(self, row: int, col: int):
        """Estimated truth ``T^hat_ij`` of cell ``(row, col)``."""
        schema = self.schema
        if 0 <= row < schema.num_rows and 0 <= col < schema.num_columns:
            return self.estimate_table()[row * schema.num_columns + col]
        return self.posterior(row, col).point_estimate()

    def estimates(self) -> Dict[Tuple[int, int], object]:
        """Estimated truths for every cell of the table."""
        num_cols = self.schema.num_columns
        return {
            divmod(key, num_cols): value
            for key, value in enumerate(self.estimate_table())
        }

    def estimate_codes(self) -> np.ndarray:
        """Numeric point estimate of every cell in row-major order, built once.

        The posterior mean of a continuous cell (the column offset when
        unanswered) and the index of the first most probable label of a
        categorical cell (0, the first label, when unanswered).  The array
        is read-only: :meth:`estimate` decodes it, and the correlation fit
        compares answers with it directly.
        """
        if self._codes is None:
            schema = self.schema
            priors = np.array([
                0.0 if column.is_categorical else float(self.column_offset[col])
                for col, column in enumerate(schema.columns)
            ])
            codes = np.tile(priors, schema.num_rows)
            codes[self.cont_keys] = self.cont_mean
            if len(self.cat_keys):
                codes[self.cat_keys] = np.argmax(self.cat_probs, axis=1)
            codes.flags.writeable = False
            self._codes = codes
        return self._codes

    def estimate_table(self) -> list:
        """Point estimates of every cell in row-major order, built once.

        :meth:`estimate_codes` decoded: the label a categorical cell's code
        indexes, the float of a continuous cell's code.  These are the
        values :meth:`posterior` ``.point_estimate()`` gives.  The list is
        shared by every caller: do not mutate it.
        """
        if self._point_estimates is None:
            schema = self.schema
            num_cols = schema.num_columns
            codes = self.estimate_codes()
            table = codes.astype(object)
            for col in schema.categorical_indices:
                labels = _object_array(schema.columns[col].labels)
                table[col::num_cols] = labels[codes[col::num_cols].astype(np.int64)]
            self._point_estimates = table.tolist()
        return self._point_estimates

    # -- worker quality -----------------------------------------------------

    def has_worker(self, worker: str) -> bool:
        """True if the worker contributed at least one answer."""
        return worker in self._worker_index

    def worker_variance(self, worker: str) -> float:
        """Inherent (standardised-scale) answer variance ``phi_u``."""
        try:
            return float(self.phi[self._worker_index[worker]])
        except KeyError as exc:
            raise InferenceError(f"Unknown worker {worker!r}") from exc

    def worker_quality(self, worker: str) -> float:
        """Unified quality ``q_u = erf(eps / sqrt(2 phi_u))`` in [0, 1]."""
        return float(
            self.worker_model.quality_from_variance(self.worker_variance(worker))
        )

    def worker_qualities(self) -> Dict[str, float]:
        """Unified quality of every worker."""
        return {worker: self.worker_quality(worker) for worker in self.worker_ids}

    def cell_quality(self, worker: str, row: int, col: int) -> float:
        """Per-cell quality ``q^u_ij = erf(eps / sqrt(2 alpha_i beta_j phi_u))``."""
        variance = self.standardized_answer_variance(worker, row, col)
        return float(self.worker_model.quality_from_variance(variance))

    def phi_for(self, worker: str) -> float:
        """Inherent variance ``phi_u``; the crowd median for unseen workers."""
        u = self._worker_index.get(worker)
        return float(self.phi[u]) if u is not None else float(np.median(self.phi))

    def standardized_answer_variance(self, worker: str, row: int, col: int) -> float:
        """Answer variance ``alpha_i beta_j phi_u`` in the standardised scale."""
        phi = self.phi_for(worker)
        return max(float(self.alpha[row] * self.beta[col] * phi), _VAR_FLOOR)

    def answer_variance(self, worker: str, row: int, col: int) -> float:
        """Answer variance of ``worker`` on cell ``(row, col)`` in original scale."""
        scale = float(self.column_scale[col])
        return self.standardized_answer_variance(worker, row, col) * scale**2

    def row_difficulty(self, row: int) -> float:
        """Estimated difficulty ``alpha_i`` of row ``row``."""
        return float(self.alpha[row])

    def column_difficulty(self, col: int) -> float:
        """Estimated difficulty ``beta_j`` of column ``col``."""
        return float(self.beta[col])


class _Workspace:
    """Vectorised scratch space shared by the E- and M-steps."""

    def __init__(
        self,
        schema: TableSchema,
        indexed: IndexedAnswers,
        standardize_continuous: bool,
    ) -> None:
        self.schema = schema
        self.indexed = indexed
        num_cols = schema.num_columns
        # Per-column standardisation (continuous columns only).
        self.offset = np.zeros(num_cols)
        self.scale = np.ones(num_cols)
        if standardize_continuous:
            for j in schema.continuous_indices:
                mask = (indexed.cols == j) & indexed.is_continuous
                if not np.any(mask):
                    continue
                values = indexed.values[mask]
                self.offset[j] = float(np.mean(values))
                std = float(np.std(values))
                if std > 1e-9:
                    self.scale[j] = std
        # Continuous answers (standardised).
        cont = indexed.is_continuous
        self.cont_rows = indexed.rows[cont]
        self.cont_cols = indexed.cols[cont]
        self.cont_workers = indexed.workers[cont]
        self.cont_values = (
            indexed.values[cont] - self.offset[self.cont_cols]
        ) / self.scale[self.cont_cols]
        # Categorical answers.
        cat = indexed.is_categorical
        self.cat_rows = indexed.rows[cat]
        self.cat_cols = indexed.cols[cat]
        self.cat_workers = indexed.workers[cat]
        self.cat_labels = indexed.label_indices[cat]
        # Cell bookkeeping: dense cell ids over the row-major cell keys.
        self.cont_keys, self.cont_cell_of_answer = self._group_cells(
            self.cont_rows, self.cont_cols, num_cols
        )
        self.cat_keys, self.cat_cell_of_answer = self._group_cells(
            self.cat_rows, self.cat_cols, num_cols
        )
        self.cat_label_counts = column_label_counts(schema)[self.cat_keys % num_cols]
        self.max_labels = int(self.cat_label_counts.max()) if len(self.cat_keys) else 0
        # Each categorical answer's number of wrong labels K - 1 (at least
        # one) and its log, constant for the workspace.
        self.cat_wrong_labels = np.maximum(
            self.cat_label_counts[self.cat_cell_of_answer] - 1, 1
        )
        self.cat_log_wrong_labels = np.log(self.cat_wrong_labels)
        # Weak Gaussian prior for continuous cells (standardised space).
        self.prior_mean = 0.0
        self.prior_variance = 10.0
        # E-step outputs, filled in by TCrowdModel._e_step.
        self.cont_post_mean = np.zeros(len(self.cont_keys))
        self.cont_post_var = np.ones(len(self.cont_keys))
        self.cat_post = (
            np.zeros((len(self.cat_keys), self.max_labels))
            if self.max_labels
            else np.zeros((0, 0))
        )
        self.refresh_answer_terms()

    def refresh_answer_terms(self) -> None:
        """Per-answer terms of Eq. 5 that change only at an E-step.

        ``residual_sq`` is each continuous answer's expected squared error
        ``(a - mu)^2 + sigma^2`` under its cell's posterior; ``p_correct``
        and ``p_wrong`` are each categorical answer's posterior probability
        of being right and ``1 - p_correct``.  Every M-step objective
        evaluation reads them instead of gathering them again.
        """
        self.residual_sq = (
            self.cont_values - self.cont_post_mean[self.cont_cell_of_answer]
        ) ** 2 + self.cont_post_var[self.cont_cell_of_answer]
        self.p_correct = self.cat_post[self.cat_cell_of_answer, self.cat_labels]
        self.p_wrong = 1.0 - self.p_correct

    @staticmethod
    def _group_cells(rows: np.ndarray, cols: np.ndarray, num_cols: int):
        """Assign a dense id to each distinct ``(row, col)`` pair.

        Returns the distinct row-major keys ``row * num_cols + col`` in
        ascending order (cell id = position) and each answer's cell id;
        grouping is a single ``np.unique`` pass.
        """
        keys = rows * np.int64(num_cols) + cols
        unique_keys, cell_of_answer = np.unique(keys, return_inverse=True)
        return unique_keys.astype(np.int64), cell_of_answer.astype(np.int64)


class TCrowdModel:
    """The T-Crowd truth-inference model (Algorithm 1).

    Parameters
    ----------
    epsilon:
        Width of the quality window in Eq. 2, in standardised units.
    max_iterations:
        Maximum number of EM iterations of a cold fit (the paper reports
        convergence in fewer than 20).
    warm_iterations:
        EM iterations of a warm-started fit (``fit(init=...)``), capped at
        ``max_iterations``; see :meth:`fit`.
    tolerance:
        EM stops when the largest absolute change of any parameter (in log
        space) falls below this threshold.
    m_step_iterations:
        Number of L-BFGS steps used to maximise Eq. 5 in each M-step.
    difficulty_regularization:
        Strength of the quadratic prior pulling ``log alpha`` and ``log beta``
        toward zero; keeps difficulties anchored for rows/columns with few
        answers.
    phi_regularization:
        (Weaker) quadratic prior on ``log phi``.
    use_difficulty:
        If ``False``, fixes ``alpha_i = beta_j = 1`` (ablation of Section 4.2).
    standardize_continuous:
        Internally z-score continuous columns (recommended; see module docs).
    """

    def __init__(
        self,
        epsilon: float = 1.0,
        max_iterations: int = 50,
        warm_iterations: int = 2,
        tolerance: float = 1e-5,
        m_step_iterations: int = 30,
        difficulty_regularization: float = 0.1,
        phi_regularization: float = 1e-3,
        use_difficulty: bool = True,
        standardize_continuous: bool = True,
    ) -> None:
        require_positive(epsilon, "epsilon")
        require_positive(max_iterations, "max_iterations")
        require_positive(warm_iterations, "warm_iterations")
        require_positive(tolerance, "tolerance")
        require_positive(m_step_iterations, "m_step_iterations")
        self.worker_model = WorkerModel(epsilon)
        self.epsilon = float(epsilon)
        self.max_iterations = int(max_iterations)
        self.warm_iterations = int(warm_iterations)
        self.tolerance = float(tolerance)
        self.m_step_iterations = int(m_step_iterations)
        self.difficulty_regularization = float(difficulty_regularization)
        self.phi_regularization = float(phi_regularization)
        self.use_difficulty = bool(use_difficulty)
        self.standardize_continuous = bool(standardize_continuous)

    #: Advertises the ``init=`` keyword of :meth:`fit` to the assigners.
    supports_warm_start = True

    # -- public API ----------------------------------------------------------

    def fit(
        self,
        schema: TableSchema,
        answers: AnswerSet,
        init: Optional[InferenceResult] = None,
    ) -> InferenceResult:
        """Run EM truth inference over ``answers`` and return the result.

        A cold fit (``init=None``) starts from ``alpha = beta = phi = 1``
        and runs up to ``max_iterations`` EM iterations.

        ``init`` warm-starts the EM loop from a previous
        :class:`InferenceResult` (typically the fit over all but the newest
        answers in the online loop of Algorithm 2): the prior
        ``log alpha / log beta / log phi`` replace the zero initialisation,
        with workers unseen by ``init`` starting at the median ``log phi``.
        A warm fit then runs a fixed ``min(warm_iterations,
        max_iterations)`` EM iterations.  Each is a generalized EM step: its
        M-step improves Eq. 5 without necessarily maximising it, which still
        raises the free energy (Neal & Hinton, 1998, "A view of the EM
        algorithm that justifies incremental, sparse, and other variants"),
        so the online chain of short warm fits is itself an EM run over the
        growing answer set, not a converged refit per answer.

        Either kind of fit stops early once no log-parameter moves by more
        than ``tolerance``; ``stopped_by`` records ``"parameters"`` or
        ``"max_iterations"`` (results of earlier versions may say
        ``"objective"``).
        """
        if len(answers) == 0:
            raise InferenceError("Cannot run truth inference on an empty answer set")
        iteration_budget = (
            self.max_iterations
            if init is None
            else min(self.warm_iterations, self.max_iterations)
        )
        indexed = answers.indexed()
        ws = _Workspace(schema, indexed, self.standardize_continuous)

        log_alpha, log_beta, log_phi = self._initial_parameters(
            init, schema, indexed
        )

        objective_trace: List[float] = []
        converged = False
        stopped_by = "max_iterations"
        iteration = 0
        self._e_step(ws, log_alpha, log_beta, log_phi)
        for iteration in range(1, iteration_budget + 1):
            previous = np.concatenate([log_alpha, log_beta, log_phi])
            log_alpha, log_beta, log_phi = self._m_step_lbfgs(
                ws, log_alpha, log_beta, log_phi
            )
            self._e_step(ws, log_alpha, log_beta, log_phi)
            objective_trace.append(
                self._objective(ws, log_alpha, log_beta, log_phi)
            )
            current = np.concatenate([log_alpha, log_beta, log_phi])
            if np.max(np.abs(current - previous)) < self.tolerance:
                converged = True
                stopped_by = "parameters"
                break

        # E-step outputs back to the original scale, as posterior arrays.
        # Each step is the elementwise IEEE operation the per-cell objects
        # used to apply (scale squared with Python's float power), so the
        # posteriors keep their bits.
        cont_cols = ws.cont_keys % schema.num_columns
        scale_sq = np.array([float(scale) ** 2 for scale in ws.scale])
        cont_var = np.maximum(ws.cont_post_var * scale_sq[cont_cols], _VAR_FLOOR)
        totals = label_row_totals(ws.cat_post, ws.cat_label_counts)
        if not (np.all(cont_var > 0) and np.all(np.isfinite(totals) & (totals > 0))):
            raise ConfigurationError(
                "EM produced a non-positive posterior variance or label mass"
            )
        return InferenceResult(
            schema=schema,
            worker_model=self.worker_model,
            worker_ids=list(indexed.worker_ids),
            alpha=np.exp(log_alpha),
            beta=np.exp(log_beta),
            phi=np.exp(log_phi),
            column_scale=ws.scale.copy(),
            column_offset=ws.offset.copy(),
            cont_keys=ws.cont_keys,
            cont_mean=ws.cont_post_mean * ws.scale[cont_cols] + ws.offset[cont_cols],
            cont_var=cont_var,
            cat_keys=ws.cat_keys,
            cat_probs=ws.cat_post / totals[:, None],
            objective_trace=objective_trace,
            n_iterations=iteration,
            converged=converged,
            stopped_by=stopped_by,
        )

    # -- initialisation --------------------------------------------------------

    def _initial_parameters(
        self,
        init: Optional[InferenceResult],
        schema: TableSchema,
        indexed: IndexedAnswers,
    ):
        """Zero (cold) or warm-start parameters in log space."""
        num_rows = schema.num_rows
        num_cols = schema.num_columns
        num_workers = indexed.num_workers
        log_alpha = np.zeros(num_rows)
        log_beta = np.zeros(num_cols)
        log_phi = np.zeros(num_workers)
        if init is None:
            return log_alpha, log_beta, log_phi
        if len(init.alpha) == num_rows and len(init.beta) == num_cols:
            log_alpha = np.log(np.maximum(init.alpha, _VAR_FLOOR))
            log_beta = np.log(np.maximum(init.beta, _VAR_FLOOR))
        prior_log_phi = np.log(np.maximum(init.phi, _VAR_FLOOR))
        log_phi.fill(float(np.median(prior_log_phi)))
        for u, worker in enumerate(indexed.worker_ids):
            prior_u = init._worker_index.get(worker)
            if prior_u is not None:
                log_phi[u] = prior_log_phi[prior_u]
        # Stay inside the L-BFGS box of the M-step.
        return (
            np.clip(log_alpha, -10.0, 10.0),
            np.clip(log_beta, -10.0, 10.0),
            np.clip(log_phi, -10.0, 10.0),
        )

    # -- E-step ---------------------------------------------------------------

    def _answer_variances(self, ws, log_alpha, log_beta, log_phi, rows, cols, workers):
        """Per-answer variance ``alpha_i beta_j phi_u`` (standardised space)."""
        log_v = log_alpha[rows] + log_beta[cols] + log_phi[workers]
        return np.maximum(np.exp(log_v), _VAR_FLOOR)

    def _e_step(self, ws: _Workspace, log_alpha, log_beta, log_phi) -> None:
        """Compute per-cell truth posteriors given the current parameters."""
        # Continuous cells: Gaussian posterior per Eq. 4.
        if len(ws.cont_keys):
            variances = self._answer_variances(
                ws, log_alpha, log_beta, log_phi,
                ws.cont_rows, ws.cont_cols, ws.cont_workers,
            )
            weights = 1.0 / variances
            num_cells = len(ws.cont_keys)
            sum_w = np.bincount(
                ws.cont_cell_of_answer, weights=weights, minlength=num_cells
            )
            sum_wa = np.bincount(
                ws.cont_cell_of_answer,
                weights=weights * ws.cont_values,
                minlength=num_cells,
            )
            prior_precision = 1.0 / ws.prior_variance
            post_precision = sum_w + prior_precision
            ws.cont_post_var = 1.0 / post_precision
            ws.cont_post_mean = (
                sum_wa + ws.prior_mean * prior_precision
            ) * ws.cont_post_var
        # Categorical cells: multinomial posterior per Eq. 4.
        if len(ws.cat_keys):
            variances = self._answer_variances(
                ws, log_alpha, log_beta, log_phi,
                ws.cat_rows, ws.cat_cols, ws.cat_workers,
            )
            quality = np.clip(
                safe_erf(self.epsilon / np.sqrt(2.0 * variances)),
                _Q_FLOOR,
                1.0 - _Q_FLOOR,
            )
            log_correct = np.log(quality)
            log_wrong = np.log((1.0 - quality) / ws.cat_wrong_labels)
            num_cells = len(ws.cat_keys)
            base = np.bincount(
                ws.cat_cell_of_answer, weights=log_wrong, minlength=num_cells
            )
            delta = np.bincount(
                ws.cat_cell_of_answer * ws.max_labels + ws.cat_labels,
                weights=log_correct - log_wrong,
                minlength=num_cells * ws.max_labels,
            ).reshape(num_cells, ws.max_labels)
            log_post = base[:, None] + delta
            # Mask out label slots beyond each cell's label-set size.
            label_grid = np.arange(ws.max_labels)[None, :]
            invalid = label_grid >= ws.cat_label_counts[:, None]
            log_post[invalid] = -np.inf
            ws.cat_post = normalize_log_probs(log_post, axis=1)
            ws.cat_post[invalid] = 0.0
        ws.refresh_answer_terms()

    # -- M-step ---------------------------------------------------------------

    def _pack(self, log_alpha, log_beta, log_phi) -> np.ndarray:
        if self.use_difficulty:
            return np.concatenate([log_alpha, log_beta, log_phi])
        return log_phi.copy()

    def _unpack(self, theta, num_rows, num_cols, num_workers):
        if self.use_difficulty:
            log_alpha = theta[:num_rows]
            log_beta = theta[num_rows:num_rows + num_cols]
            log_phi = theta[num_rows + num_cols:]
        else:
            log_alpha = np.zeros(num_rows)
            log_beta = np.zeros(num_cols)
            log_phi = theta
        return log_alpha, log_beta, log_phi

    def _objective_and_grad(self, theta, ws: _Workspace, shapes):
        """Return ``(-Q, -dQ/dtheta)`` for the L-BFGS maximisation of Eq. 5."""
        objective, (grad_alpha, grad_beta, grad_phi) = self._expected_loglik(
            ws, *self._unpack(theta, *shapes), gradient=True
        )
        if self.use_difficulty:
            grad = np.concatenate([grad_alpha, grad_beta, grad_phi])
        else:
            grad = grad_phi
        return -objective, -grad

    def _expected_loglik(
        self, ws: _Workspace, log_alpha, log_beta, log_phi, gradient: bool
    ):
        """Eq. 5 and, if ``gradient``, its gradient in the log-parameters.

        Returns ``(Q, (dQ/dlog_alpha, dQ/dlog_beta, dQ/dlog_phi))``, the
        gradient ``None`` when not asked for.  The per-answer terms that
        change only at an E-step come from the workspace.
        """
        num_rows, num_cols, num_workers = len(log_alpha), len(log_beta), len(log_phi)
        objective = 0.0
        if gradient:
            grad_alpha = np.zeros(num_rows)
            grad_beta = np.zeros(num_cols)
            grad_phi = np.zeros(num_workers)

        # Continuous answers.
        if len(ws.cont_keys):
            variances = self._answer_variances(
                ws, log_alpha, log_beta, log_phi,
                ws.cont_rows, ws.cont_cols, ws.cont_workers,
            )
            residual_sq = ws.residual_sq
            objective += float(
                np.sum(
                    -0.5 * np.log(2.0 * np.pi * variances)
                    - residual_sq / (2.0 * variances)
                )
            )
            if gradient:
                dq_dv = -0.5 / variances + residual_sq / (2.0 * variances**2)
                contribution = dq_dv * variances  # d/d(log-parameter)
                grad_alpha += np.bincount(
                    ws.cont_rows, weights=contribution, minlength=num_rows
                )
                grad_beta += np.bincount(
                    ws.cont_cols, weights=contribution, minlength=num_cols
                )
                grad_phi += np.bincount(
                    ws.cont_workers, weights=contribution, minlength=num_workers
                )

        # Categorical answers.
        if len(ws.cat_keys):
            variances = self._answer_variances(
                ws, log_alpha, log_beta, log_phi,
                ws.cat_rows, ws.cat_cols, ws.cat_workers,
            )
            u_arg = self.epsilon / np.sqrt(2.0 * variances)
            quality = np.clip(safe_erf(u_arg), _Q_FLOOR, 1.0 - _Q_FLOOR)
            wrong = 1.0 - quality
            p_correct, p_wrong = ws.p_correct, ws.p_wrong
            objective += float(
                np.sum(
                    p_correct * np.log(quality)
                    + p_wrong * (np.log(wrong) - ws.cat_log_wrong_labels)
                )
            )
            if gradient:
                dq_dv = -(u_arg / (variances * np.sqrt(np.pi))) * np.exp(-u_arg**2)
                dobj_dq = p_correct / quality - p_wrong / wrong
                contribution = dobj_dq * dq_dv * variances
                grad_alpha += np.bincount(
                    ws.cat_rows, weights=contribution, minlength=num_rows
                )
                grad_beta += np.bincount(
                    ws.cat_cols, weights=contribution, minlength=num_cols
                )
                grad_phi += np.bincount(
                    ws.cat_workers, weights=contribution, minlength=num_workers
                )

        # Quadratic priors on the log-parameters (keep them anchored).
        reg_ab = self.difficulty_regularization
        reg_phi = self.phi_regularization
        objective -= 0.5 * reg_ab * float(np.sum(log_alpha**2) + np.sum(log_beta**2))
        objective -= 0.5 * reg_phi * float(np.sum(log_phi**2))
        if not gradient:
            return objective, None
        grad_alpha -= reg_ab * log_alpha
        grad_beta -= reg_ab * log_beta
        grad_phi -= reg_phi * log_phi
        return objective, (grad_alpha, grad_beta, grad_phi)

    def _m_step_lbfgs(self, ws: _Workspace, log_alpha, log_beta, log_phi):
        """Maximise Eq. 5 over the (log) parameters by L-BFGS."""
        shapes = (len(log_alpha), len(log_beta), len(log_phi))
        theta0 = self._pack(log_alpha, log_beta, log_phi)
        if _setulb_matches():
            theta = _lbfgsb_box(
                self._objective_and_grad, theta0, (ws, shapes),
                self.m_step_iterations,
            )
        else:
            theta, _value, _info = optimize.fmin_l_bfgs_b(
                self._objective_and_grad,
                theta0,
                args=(ws, shapes),
                bounds=[(-10.0, 10.0)] * len(theta0),
                maxiter=self.m_step_iterations,
            )
        log_alpha, log_beta, log_phi = self._unpack(theta, *shapes)
        return self._recenter(log_alpha, log_beta, log_phi)

    def _recenter(self, log_alpha, log_beta, log_phi):
        """Remove the scale ambiguity: the likelihood only sees the products
        ``alpha_i * beta_j * phi_u``, so re-centre alpha and beta at geometric
        mean one and fold the shift into phi."""
        if self.use_difficulty:
            mean_alpha = float(np.mean(log_alpha))
            mean_beta = float(np.mean(log_beta))
            log_alpha = log_alpha - mean_alpha
            log_beta = log_beta - mean_beta
            log_phi = log_phi + mean_alpha + mean_beta
        return log_alpha, log_beta, log_phi

    def _objective(self, ws: _Workspace, log_alpha, log_beta, log_phi) -> float:
        """Expected complete-data log-likelihood at the current parameters.

        The value of :meth:`_objective_and_grad` (negated back), without
        computing the gradient.
        """
        shapes = (len(log_alpha), len(log_beta), len(log_phi))
        theta = self._pack(log_alpha, log_beta, log_phi)
        objective, _grad = self._expected_loglik(
            ws, *self._unpack(theta, *shapes), gradient=False
        )
        return objective
