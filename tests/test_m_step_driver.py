"""The L-BFGS M-step's direct ``setulb`` driver against ``fmin_l_bfgs_b``.

``repro.core.inference._lbfgsb_box`` runs SciPy's reverse-communication
L-BFGS-B routine from its own loop.  SciPy's public
``optimize.fmin_l_bfgs_b`` with the same box and settings is the reference:

* every M-step ``x`` the driver returns equals the reference's byte for
  byte (the ``checked_driver`` fixture runs both on every call);
* every fit's ``buffer_hash``, objective trace and iteration count equal
  those of the same fit through the reference, for the golden-trace
  session, tiny versions of both crowdbench shapes, ``use_difficulty=False``
  and a one-parameter fit;
* the driver alone matches on an ``x0`` outside the box, a problem that
  converges before ``maxiter`` and a one-parameter problem;
* a ``setulb`` with another signature routes to the public call.

The per-answer terms the workspace computes once per E-step are pinned by a
reference objective that evaluates every term inline.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize
from scipy.optimize import _lbfgsb

from repro.core import inference
from repro.core.answers import AnswerSet
from repro.core.codec import buffer_hash
from repro.core.inference import TCrowdModel, _Workspace
from repro.core.schema import Column, TableSchema
from repro.datasets import generate_synthetic, load_celebrity
from repro.utils.numerics import safe_erf

#: crowdbench's model budget (``crowdbench/workloads.py``).
FAST_MODEL = {"max_iterations": 6, "m_step_iterations": 10}
BOX = (-10.0, 10.0)


def reference_minimize(func, x0, args, maxiter):
    """The public call the driver replaces; returns ``(x, info)``."""
    x, _value, info = optimize.fmin_l_bfgs_b(
        func, x0, args=args, bounds=[BOX] * len(x0), maxiter=maxiter
    )
    return x, info


@pytest.fixture()
def checked_driver(monkeypatch):
    """Run the reference next to every driver call; assert equal bytes.

    Yields the list of the reference's ``warnflag`` per M-step (0 when
    L-BFGS-B converged, task 4; 1 at the iteration limit, task 5/504).
    """
    assert inference._setulb_matches(), "the driver does not run on this SciPy"
    driver = inference._lbfgsb_box
    warnflags = []

    def checked(func, x0, args, maxiter):
        x0_bytes = np.asarray(x0).tobytes()
        x = driver(func, x0, args, maxiter)
        assert np.asarray(x0).tobytes() == x0_bytes
        reference, info = reference_minimize(func, x0, args, maxiter)
        assert x.dtype == reference.dtype
        assert x.tobytes() == reference.tobytes()
        warnflags.append(info["warnflag"])
        return x

    monkeypatch.setattr(inference, "_lbfgsb_box", checked)
    return warnflags


def fit_bits(result):
    return buffer_hash(result), list(result.objective_trace), result.n_iterations


def via_reference(monkeypatch, run):
    """``run()`` with every M-step through ``optimize.fmin_l_bfgs_b``."""
    with monkeypatch.context() as patch:
        patch.setattr(inference, "_setulb_matches", lambda: False)
        return run()


def cold_and_warm(model, schema, answers, cut):
    """A cold fit over the first ``cut`` answers, then a warm fit over all."""
    early = AnswerSet(schema, list(answers)[:cut])
    cold = model.fit(schema, early)
    warm = model.fit(schema, answers, init=cold)
    return [fit_bits(cold), fit_bits(warm)]


def tiny_paper_sync():
    """paper-sync's celebrity table at 24 rows (crowdbench's tiny size)."""
    dataset = load_celebrity(seed=1, num_rows=24, answers_per_task=2)
    return dataset.schema, dataset.answers


def tiny_large_durable():
    """large-durable's synthetic 6-column table at 24 rows."""
    dataset = generate_synthetic(
        num_rows=24, num_columns=6, answers_per_task=2, num_workers=10, seed=4
    )
    return dataset.schema, dataset.answers


SHAPES = {"paper-sync": tiny_paper_sync, "large-durable": tiny_large_durable}


class TestFitsMatchTheReference:
    def test_every_golden_trace_fit(self, monkeypatch, checked_driver):
        from test_golden_trace import replay_session

        def replay():
            fits = []
            original = TCrowdModel.fit

            def fit(model, *args, **kwargs):
                result = original(model, *args, **kwargs)
                fits.append(fit_bits(result))
                return result

            with monkeypatch.context() as patch:
                patch.setattr(TCrowdModel, "fit", fit)
                decisions, estimates = replay_session("incremental")
            return fits, decisions, estimates

        driven = replay()
        assert len(driven[0]) >= 5
        assert len(checked_driver) == sum(fit[2] for fit in driven[0])
        assert driven == via_reference(monkeypatch, replay)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_cold_and_warm_fits_at_tiny_crowdbench_shapes(
        self, monkeypatch, checked_driver, shape
    ):
        schema, answers = SHAPES[shape]()
        model = TCrowdModel(**FAST_MODEL)

        def run():
            return cold_and_warm(model, schema, answers, len(answers) - 10)

        driven = run()
        assert driven == via_reference(monkeypatch, run)
        # One M-step per EM iteration, each checked.
        assert len(checked_driver) == sum(fit[2] for fit in driven)

    def test_without_difficulty(self, monkeypatch, checked_driver):
        schema, answers = tiny_paper_sync()
        model = TCrowdModel(use_difficulty=False, **FAST_MODEL)

        def run():
            return cold_and_warm(model, schema, answers, len(answers) // 2)

        assert run() == via_reference(monkeypatch, run)
        assert checked_driver

    def test_m_steps_that_converge_before_maxiter(self, monkeypatch, checked_driver):
        """A generous M-step budget: L-BFGS-B stops on convergence (task 4)."""
        schema, answers = tiny_large_durable()
        model = TCrowdModel(max_iterations=8, m_step_iterations=500)

        def run():
            return [fit_bits(model.fit(schema, answers))]

        assert run() == via_reference(monkeypatch, run)
        assert 0 in checked_driver

    def test_one_parameter_fit(self, monkeypatch, checked_driver):
        """One worker and no difficulties: theta is ``[log phi]``."""
        schema = TableSchema.build(
            "item",
            (
                Column.categorical("colour", ("red", "green", "blue")),
                Column.continuous("weight", (0.0, 10.0)),
            ),
            num_rows=3,
        )
        answers = AnswerSet(schema)
        for row in range(3):
            answers.add_answer("solo", row, 0, ("red", "green", "red")[row])
            answers.add_answer("solo", row, 1, 2.0 + 1.5 * row)
        model = TCrowdModel(use_difficulty=False, **FAST_MODEL)

        def run():
            return [fit_bits(model.fit(schema, answers))]

        assert run() == via_reference(monkeypatch, run)
        assert checked_driver


class TestDriverAlone:
    @staticmethod
    def quadratic(x, centre):
        return float(np.sum((x - centre) ** 2)), 2.0 * (x - centre)

    def test_x0_outside_the_box(self):
        centre = np.array([3.0, -12.0, 0.5])
        x0 = np.array([15.0, -20.0, 3.0])
        x = inference._lbfgsb_box(self.quadratic, x0, (centre,), 10)
        reference, _info = reference_minimize(self.quadratic, x0, (centre,), 10)
        assert x.tobytes() == reference.tobytes()
        assert x[1] == -10.0
        assert list(x0) == [15.0, -20.0, 3.0]

    def test_converges_before_maxiter(self):
        centre = np.array([1.0, -2.0, 4.0, 0.25])
        x0 = np.zeros(4)
        x = inference._lbfgsb_box(self.quadratic, x0, (centre,), 100)
        reference, info = reference_minimize(self.quadratic, x0, (centre,), 100)
        assert info["warnflag"] == 0 and info["nit"] < 100
        assert x.tobytes() == reference.tobytes()

    def test_one_parameter(self):
        def func(x):
            return float(np.cosh(x[0] - 1.0)), np.sinh(x - 1.0)

        for maxiter in (1, 2, 30):
            x = inference._lbfgsb_box(func, np.array([-4.0]), (), maxiter)
            reference, _info = reference_minimize(func, np.array([-4.0]), (), maxiter)
            assert x.tobytes() == reference.tobytes()


def test_other_setulb_signature_routes_to_the_public_call(monkeypatch):
    schema, answers = tiny_large_durable()
    model = TCrowdModel(**FAST_MODEL)
    driven = [fit_bits(model.fit(schema, answers))]

    setulb = _lbfgsb.setulb
    public_calls = []
    fmin_l_bfgs_b = optimize.fmin_l_bfgs_b

    def other_setulb(*args):
        """setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls)"""
        return setulb(*args)

    def counted(*args, **kwargs):
        public_calls.append(1)
        return fmin_l_bfgs_b(*args, **kwargs)

    monkeypatch.setattr(_lbfgsb, "setulb", other_setulb)
    monkeypatch.setattr(optimize, "fmin_l_bfgs_b", counted)
    monkeypatch.setattr(inference, "_lbfgsb_box", None)  # must not be reached
    assert not inference._setulb_matches()
    assert [fit_bits(model.fit(schema, answers))] == driven
    assert len(public_calls) == driven[0][2]


# -- the objective -------------------------------------------------------------


def reference_objective_and_grad(model, theta, ws, shapes):
    """``_objective_and_grad`` with every per-answer term evaluated inline
    from the workspace's posteriors instead of read from the workspace."""
    num_rows, num_cols, num_workers = shapes
    log_alpha, log_beta, log_phi = model._unpack(theta, *shapes)
    objective = 0.0
    grad_alpha = np.zeros(num_rows)
    grad_beta = np.zeros(num_cols)
    grad_phi = np.zeros(num_workers)
    if len(ws.cont_keys):
        variances = model._answer_variances(
            ws, log_alpha, log_beta, log_phi,
            ws.cont_rows, ws.cont_cols, ws.cont_workers,
        )
        residual_sq = (
            ws.cont_values - ws.cont_post_mean[ws.cont_cell_of_answer]
        ) ** 2 + ws.cont_post_var[ws.cont_cell_of_answer]
        objective += float(np.sum(
            -0.5 * np.log(2.0 * np.pi * variances)
            - residual_sq / (2.0 * variances)
        ))
        dq_dv = -0.5 / variances + residual_sq / (2.0 * variances**2)
        contribution = dq_dv * variances
        grad_alpha += np.bincount(ws.cont_rows, contribution, num_rows)
        grad_beta += np.bincount(ws.cont_cols, contribution, num_cols)
        grad_phi += np.bincount(ws.cont_workers, contribution, num_workers)
    if len(ws.cat_keys):
        variances = model._answer_variances(
            ws, log_alpha, log_beta, log_phi,
            ws.cat_rows, ws.cat_cols, ws.cat_workers,
        )
        u_arg = model.epsilon / np.sqrt(2.0 * variances)
        quality = np.clip(safe_erf(u_arg), 1e-9, 1.0 - 1e-9)
        label_counts = ws.cat_label_counts[ws.cat_cell_of_answer]
        p_correct = ws.cat_post[ws.cat_cell_of_answer, ws.cat_labels]
        objective += float(np.sum(
            p_correct * np.log(quality)
            + (1.0 - p_correct)
            * (np.log(1.0 - quality) - np.log(np.maximum(label_counts - 1, 1)))
        ))
        dq_dv = -(u_arg / (variances * np.sqrt(np.pi))) * np.exp(-u_arg**2)
        dobj_dq = p_correct / quality - (1.0 - p_correct) / (1.0 - quality)
        contribution = dobj_dq * dq_dv * variances
        grad_alpha += np.bincount(ws.cat_rows, contribution, num_rows)
        grad_beta += np.bincount(ws.cat_cols, contribution, num_cols)
        grad_phi += np.bincount(ws.cat_workers, contribution, num_workers)
    reg_ab = model.difficulty_regularization
    reg_phi = model.phi_regularization
    objective -= 0.5 * reg_ab * float(np.sum(log_alpha**2) + np.sum(log_beta**2))
    objective -= 0.5 * reg_phi * float(np.sum(log_phi**2))
    grad_alpha -= reg_ab * log_alpha
    grad_beta -= reg_ab * log_beta
    grad_phi -= reg_phi * log_phi
    if model.use_difficulty:
        grad = np.concatenate([grad_alpha, grad_beta, grad_phi])
    else:
        grad = grad_phi
    return -objective, -grad


def bits(value) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("use_difficulty", [True, False])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_objective_is_the_negated_value_of_objective_and_grad(shape, use_difficulty):
    schema, answers = SHAPES[shape]()
    model = TCrowdModel(use_difficulty=use_difficulty, **FAST_MODEL)
    ws = _Workspace(schema, answers.indexed(), model.standardize_continuous)
    rng = np.random.default_rng(11)
    shapes = (schema.num_rows, schema.num_columns, answers.indexed().num_workers)
    for _draw in range(4):
        log_alpha, log_beta, log_phi = (
            rng.uniform(-2.0, 2.0, size) for size in shapes
        )
        model._e_step(ws, log_alpha, log_beta, log_phi)
        theta = model._pack(log_alpha, log_beta, log_phi)
        negative, grad = model._objective_and_grad(theta, ws, shapes)
        reference = reference_objective_and_grad(model, theta, ws, shapes)
        assert bits(negative) == bits(reference[0])
        assert grad.tobytes() == reference[1].tobytes()
        objective = model._objective(ws, log_alpha, log_beta, log_phi)
        assert bits(objective) == bits(-negative)
