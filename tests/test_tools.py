import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402
import bundle_digests  # noqa: E402


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
                                                     "second_worker_peak_mb": 25.0,
                                                     "pool_peaks_mb": [20.0, 30.0, 30.0]}
    split = bench_pairs.peak_split(tmp_path, "missing")
    assert set(split) == {m["name"] for m in bench_pairs.PEAK_SPLIT} | {"pool_peaks_mb"}
    assert split.pop("pool_peaks_mb") == []
    assert all(math.isnan(v) for v in split.values())


def test_pool_peaks_are_the_median_worker_peak_of_each_pool_in_fork_order(tmp_path):
    # three invocations of a verb that forks one pool per level, one worker
    # each at 2 workers, the worker peaks in the order the pools exited;
    # one invocation stopped after two levels, so the third pool's median
    # is over the two that forked it
    work = tmp_path / ".bench_work" / "w"
    work.mkdir(parents=True)
    results = [{"peak_rss_mb": 120.0, "worker_peaks_mb": [40.0, 50.0, 60.0]},
               {"peak_rss_mb": 121.0, "worker_peaks_mb": [42.0, 48.0, 64.0]},
               {"peak_rss_mb": 119.0, "worker_peaks_mb": [41.0, 52.0]}]
    for i, res in enumerate(results, 1):
        (work / f"result-{i}.json").write_text(json.dumps(res))
    split = bench_pairs.peak_split(tmp_path, "w")
    assert split["pool_peaks_mb"] == [41.0, 50.0, 62.0]
    # compared like the metrics, per pool, over the pools every run reports
    parent = [{"correct": True, "pool_peaks_mb": [41.0, 50.0, 62.0]},
              {"correct": True, "pool_peaks_mb": [41.5, 50.5, 61.0]}]
    change = [{"correct": True, "pool_peaks_mb": [41.0, 49.0, 55.0]},
              {"correct": True, "pool_peaks_mb": [41.0, 49.5]}]
    metrics = bench_pairs.pool_metrics(parent + change)
    assert [m["name"] for m in metrics] == ["pool_0_peak_mb", "pool_1_peak_mb"]
    out = bench_pairs.compare(parent, change, metrics, bench_pairs.pool_peak)
    assert out["pool_0_peak_mb"]["change_wins"] == 1 and out["pool_1_peak_mb"]["change_wins"] == 2
    assert out["pool_1_peak_mb"]["change"]["median"] == 49.25


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
    assert split.pop("pool_peaks_mb") == workers and sum(split.values()) == 150.0


def test_compare_reads_the_peak_split_like_the_metrics():
    runs = [{"correct": True, "verb_peak_mb": v, "worker_peak_mb": 30.0, "second_worker_peak_mb": 20.0}
            for v in (50.0, 52.0)]
    change = [{"correct": True, "verb_peak_mb": v, "worker_peak_mb": 31.0, "second_worker_peak_mb": 19.0}
              for v in (45.0, 46.0)]
    out = bench_pairs.compare(runs, change, bench_pairs.PEAK_SPLIT, lambda run, name: run[name])
    assert out["verb_peak_mb"]["change_wins"] == 2 and out["worker_peak_mb"]["change_wins"] == 0
    assert out["second_worker_peak_mb"]["change_wins"] == 2
    assert out["verb_peak_mb"]["parent"]["median"] == pytest.approx(51.0)


def test_a_bench_run_starts_from_the_fixed_variables_alone(tmp_path, monkeypatch):
    # a stand-in bench/run.py that prints its environment as its result
    # line: a version manager's PYENV_* variables, and any other the caller
    # has beyond CHILD_ENV, do not reach it
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("import json, os\nprint(json.dumps(dict(os.environ)))\n")
    monkeypatch.setenv("PYENV_VERSION", "3.11.7")
    monkeypatch.setenv("PYENV_ROOT", str(tmp_path / "pyenv"))
    monkeypatch.setenv("SGNS_WORKERS", "3")
    monkeypatch.setenv("PATH", os.environ.get("PATH", "/usr/bin"))
    monkeypatch.setenv("LANG", "C.UTF-8")
    _, result = bench_pairs.bench_run(tmp_path, "w", 1)
    env = {k: v for k, v in result.items() if k not in bench_pairs.peak_split(tmp_path, "w")}
    env.pop("exit_status")
    assert not [name for name in env if name.startswith("PYENV_")] and "SGNS_WORKERS" not in env
    assert set(env) <= set(bench_pairs.CHILD_ENV)
    assert env["PATH"] == os.environ["PATH"] and env["LANG"] == "C.UTF-8"
    assert list(bench_pairs.child_env()) == [name for name in bench_pairs.CHILD_ENV if name in os.environ]


def test_src_lines_counts_each_checkouts_modules_as_wc_does(tmp_path):
    # two checkouts: one with two modules, the last without a final
    # newline, which wc -l does not count, and a file beside them that is
    # not a module; one with none
    pkg = tmp_path / "a" / "src" / "sgns"
    pkg.mkdir(parents=True)
    (pkg / "one.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "two.py").write_text("z = 3\nw = 4")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "b" / "src" / "sgns").mkdir(parents=True)
    roots = {"parent": tmp_path / "a", "change": tmp_path / "b"}
    assert bench_pairs.src_lines(roots) == {"parent": 4, "change": 0}
    wc = subprocess.run("cat src/sgns/*.py | wc -l", shell=True, cwd=roots["parent"], capture_output=True,
                        text=True)
    assert int(wc.stdout) == 4


def test_bundle_digests_against_prints_only_the_differing_lines(monkeypatch, capsys):
    # canned outputs of two checkouts: one bundle file moved, one exit
    # status is the parent's alone and one file the change's alone
    parent = ["a ensemble w1 exit_status 0", "a ensemble w1 summary.json 11", "a simulate w1 exit_status 0",
              "demo 01 stdout ff"]
    change = ["a ensemble w1 exit_status 0", "a ensemble w1 summary.json 12", "a ensemble w1 table.csv 13",
              "demo 01 stdout ff"]
    want = ["- a ensemble w1 summary.json 11", "+ a ensemble w1 summary.json 12", "+ a ensemble w1 table.csv 13",
            "- a simulate w1 exit_status 0"]
    assert bundle_digests.differing_lines(parent, change) == want
    assert bundle_digests.differing_lines(parent, parent) == []
    outputs = {Path("/parent"): parent, Path("/change"): change, Path("/same"): parent}
    monkeypatch.setattr(bundle_digests, "digest_lines", lambda root: outputs[root])
    assert bundle_digests.main(["--root", "/change", "--against", "/parent"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == want and err == "4 parent and 4 change lines, 4 differing\n"
    assert bundle_digests.main(["--root", "/same", "--against", "/parent"]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == "4 parent and 4 change lines, 0 differing\n"
    # without --against, the checkout's lines as before
    assert bundle_digests.main(["--root", "/change"]) == 0
    assert capsys.readouterr().out.splitlines() == change
