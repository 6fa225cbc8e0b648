import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def test_peak_split_takes_the_summed_worker_peaks_off_the_verb_peak(tmp_path):
    # two verb invocations at 2 workers, one with a third, smaller worker
    # peak that peak_rss_mb did not sum, and a set-up spawn with no verb
    work = tmp_path / ".bench_work" / "w"
    work.mkdir(parents=True)
    results = [{"loaded": 0.0},
               {"peak_rss_mb": 100.0, "worker_peaks_mb": [30.0, 20.0]},
               {"peak_rss_mb": 110.0, "worker_peaks_mb": [10.0, 40.0, 30.0]}]
    for i, res in enumerate(results, 1):
        (work / f"result-{i}.json").write_text(json.dumps(res))
    assert bench_pairs.WORKERS == 2
    assert bench_pairs.peak_split(tmp_path, "w") == {"verb_peak_mb": 45.0, "worker_peak_mb": 35.0,
                                                     "second_worker_peak_mb": 25.0}
    split = bench_pairs.peak_split(tmp_path, "missing")
    assert set(split) == {m["name"] for m in bench_pairs.PEAK_SPLIT}
    assert all(math.isnan(v) for v in split.values())


@pytest.mark.parametrize("workers, want", [
    ([40.0, 50.0, 30.0, 20.0], (60.0, 50.0, 40.0)),  # one pool per level: the two summed are of two pools
    ([30.0], (120.0, 30.0, 0.0)),  # one worker: no second peak
    ([], (150.0, 0.0, 0.0)),
])
def test_peak_split_parts_add_up_to_the_peak(tmp_path, workers, want):
    # per invocation the verb's peak and the two summed worker peaks are
    # peak_rss_mb, as on tightness-levels, whose levels fork a pool each
    work = tmp_path / ".bench_work" / "w"
    work.mkdir(parents=True)
    (work / "result-1.json").write_text(json.dumps({"peak_rss_mb": 150.0, "worker_peaks_mb": workers}))
    split = bench_pairs.peak_split(tmp_path, "w")
    assert (split["verb_peak_mb"], split["worker_peak_mb"], split["second_worker_peak_mb"]) == want
    assert sum(split.values()) == 150.0


def test_compare_reads_the_peak_split_like_the_metrics():
    runs = [{"correct": True, "verb_peak_mb": v, "worker_peak_mb": 30.0, "second_worker_peak_mb": 20.0}
            for v in (50.0, 52.0)]
    change = [{"correct": True, "verb_peak_mb": v, "worker_peak_mb": 31.0, "second_worker_peak_mb": 19.0}
              for v in (45.0, 46.0)]
    out = bench_pairs.compare(runs, change, bench_pairs.PEAK_SPLIT, lambda run, name: run[name])
    assert out["verb_peak_mb"]["change_wins"] == 2 and out["worker_peak_mb"]["change_wins"] == 0
    assert out["second_worker_peak_mb"]["change_wins"] == 2
    assert out["verb_peak_mb"]["parent"]["median"] == pytest.approx(51.0)
