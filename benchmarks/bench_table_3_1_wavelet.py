"""Table 3.1 — sparsity and accuracy of the wavelet sparsification.

Paper (examples 1a / 1b / 2 / 3): unthresholded sparsity ~2.5-3.5 with max
relative error 0.2% (regular and irregular same-size layouts) but 47% for the
alternating-size layout; after ~6x thresholding the fraction of entries off by
more than 10% is 0.1% / 5.2% / 1.1% / 80%.  The benchmark regenerates all four
rows; the qualitative shape (example 3 much worse than 1a/2) must hold.
"""

import pytest

from repro.experiments import paper_examples, run_wavelet_experiment

from common import bench_n_side, check_golden, format_report_row, report_record, write_result


@pytest.mark.benchmark(group="table-3.1")
def test_table_3_1_wavelet_sparsification(benchmark):
    examples = paper_examples(n_side=bench_n_side())
    # keep the FD-solved variant at a resolution that runs in reasonable time
    examples["1b"].fd_resolution = (32, 32)
    examples["1b"].fd_planes_per_layer = (2, 5, 2)

    def run_all():
        return {name: run_wavelet_experiment(cfg) for name, cfg in examples.items()}

    results = benchmark.pedantic(run_all, iterations=1, rounds=1)

    lines = ["Table 3.1 — wavelet sparsification (unthresholded Gws / thresholded Gwt)"]
    records = []
    for name, res in results.items():
        for label, report in (
            (f"example {name} (Gws)", res.unthresholded),
            (f"example {name} (Gwt)", res.thresholded),
        ):
            lines.append(format_report_row(label, report))
            records.append(report_record(label, report))
    write_result("table_3_1_wavelet", lines)
    check_golden("table_3_1_wavelet", records)

    # shape: the alternating-size example (3) is much less accurate than the
    # same-size examples (1a, 2), both before and after thresholding
    assert (
        results["3"].unthresholded.max_relative_error
        > 5 * results["1a"].unthresholded.max_relative_error
    )
    assert (
        results["3"].thresholded.fraction_above_10pct
        > results["1a"].thresholded.fraction_above_10pct
    )
