"""Evaluation workloads and runners regenerating the paper's tables."""

from .examples import ExampleConfig, chapter4_examples, get_example, paper_examples
from .runner import (
    SparsificationResult,
    run_batched_extraction_experiment,
    run_dispatch_experiment,
    run_durable_experiment,
    run_faults_experiment,
    run_lowrank_experiment,
    run_method_comparison,
    run_preconditioner_table,
    run_service_experiment,
    run_solver_speed_table,
    run_wavelet_experiment,
    singular_value_decay_experiment,
)

__all__ = [
    "ExampleConfig",
    "paper_examples",
    "chapter4_examples",
    "get_example",
    "SparsificationResult",
    "run_wavelet_experiment",
    "run_lowrank_experiment",
    "run_method_comparison",
    "run_preconditioner_table",
    "run_solver_speed_table",
    "run_batched_extraction_experiment",
    "run_dispatch_experiment",
    "run_durable_experiment",
    "run_faults_experiment",
    "run_service_experiment",
    "singular_value_decay_experiment",
]
