"""Baseline truth-inference and task-assignment methods compared in the paper.

Truth inference (Section 6.2): Majority Voting, Median, Dawid & Skene (the
paper's "EM"), GLAD, ZenCrowd, GTM, CRH and CATD.

Task assignment (Sections 6.3-6.4): CDAS, AskIt!, and the Random / Looping
heuristics (Figure 5's Entropy heuristic is the ``uncertainty`` strategy);
CRH and CATD use random assignment combined with their own inference, which
the experiment harness composes from these pieces.
"""

from repro.baselines.base import BaselineResult, TruthInferenceMethod
from repro.baselines.catd import CATD
from repro.baselines.crh import CRH
from repro.baselines.dawid_skene import DawidSkene
from repro.baselines.glad import GLAD
from repro.baselines.gtm import GTM
from repro.baselines.majority_voting import MajorityVoting
from repro.baselines.median import MedianAggregator
from repro.baselines.zencrowd import ZenCrowd
from repro.baselines.assignment_askit import AskItAssigner
from repro.baselines.assignment_cdas import CDASAssigner
from repro.baselines.assignment_simple import LoopingAssigner, RandomAssigner

__all__ = [
    "AskItAssigner",
    "BaselineResult",
    "CATD",
    "CDASAssigner",
    "CRH",
    "DawidSkene",
    "GLAD",
    "GTM",
    "LoopingAssigner",
    "MajorityVoting",
    "MedianAggregator",
    "RandomAssigner",
    "TruthInferenceMethod",
    "ZenCrowd",
]
