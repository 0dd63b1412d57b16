"""Datasets: container, synthetic generator, simulated real datasets, noise.

The three "real" datasets of the paper (Celebrity, Restaurant, Emotion) are
simulated with the published shapes and answer redundancies (see Table 6;
each dataset's module docstring gives the substitution rationale); the
synthetic generator follows Section 6.5.1 and the noise injection follows
Section 6.5.2.
"""

from repro.datasets.base import CrowdDataset
from repro.datasets.celebrity import celebrity_schema, load_celebrity
from repro.datasets.emotion import emotion_schema, load_emotion
from repro.datasets.noise import add_noise
from repro.datasets.restaurant import load_restaurant, restaurant_schema
from repro.datasets.synthetic import build_dataset, draw_difficulties, generate_synthetic
from repro.datasets.workers import AnswerOracle, SimulatedWorker, WorkerPool

__all__ = [
    "AnswerOracle",
    "CrowdDataset",
    "SimulatedWorker",
    "WorkerPool",
    "add_noise",
    "build_dataset",
    "celebrity_schema",
    "draw_difficulties",
    "emotion_schema",
    "generate_synthetic",
    "load_celebrity",
    "load_emotion",
    "load_restaurant",
    "restaurant_schema",
]
