"""The pair tool, tools/bench_pair.py: a smoke run of HEAD against itself
writes a complete record, with its A/A control, and leaves no worktree; a
failed run leaves the record it would have replaced as it was.
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False)


@pytest.mark.skipif(_git("rev-parse", "--verify", "HEAD").returncode != 0,
                    reason="the pair tool checks commits out of a git repository")
def test_pair_tool_smoke_run_of_head_against_itself(tmp_path):
    worktrees = _git("worktree", "list", "--porcelain").stdout
    out, trees = tmp_path / "BENCH.json", tmp_path / "trees"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pair.py"), "elliptic-reference", "HEAD",
         "--smoke", "--pairs", "1", "--out", str(out), "--workdir", str(trees)],
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    # every worktree is gone, from git's list and from disk
    assert _git("worktree", "list", "--porcelain").stdout == worktrees
    assert list(trees.iterdir()) == []
    doc = json.loads(out.read_text(encoding="utf-8"))
    head = _git("rev-parse", "HEAD").stdout.strip()
    assert doc["commits"] == {"parent": head, "change": head}
    assert doc["machine"]["blas_threads"] == 1
    assert list(doc["seeds"]) == ["0"]
    seed = doc["seeds"]["0"]
    for pairs, sides in ((seed["control"]["pairs"], {"change", "second"}),
                         (seed["pairs"], {"parent", "change"})):
        assert len(pairs) == 1 and set(pairs[0]) == sides | {"first"}
        assert pairs[0]["first"] in sides
        for side in sides:
            run = pairs[0][side]
            assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
    assert doc["tool"] == ("python3 tools/bench_pair.py elliptic-reference HEAD --pairs 1 "
                           "--seeds 0 --smoke")
    assert "--seconds 0" in doc["command"]
    # the ratios of one commit against itself are timing noise, so only their
    # bookkeeping is checked, not their size
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        row, noise = seed["summary"][name], seed["control"]["summary"][name]
        lo, hi = noise["spread"]
        assert lo <= 1.0 <= hi and "resolved" not in noise
        assert row["ratio"] == pytest.approx(row["change"]["median"] / row["parent"]["median"])
        assert row["resolved"] == (not lo <= row["ratio"] <= hi)


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failed_run_writes_a_side_file_and_keeps_the_record(tmp_path, monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "git", lambda *args, **kw: "0" * 40 if args[0] == "rev-parse" else "")
    monkeypatch.setattr(tool, "make_tree", lambda rev, path: path.mkdir())
    monkeypatch.setattr(tool, "run_side", lambda path, args, seed: {"exit": 1, "correct": False})
    out = tmp_path / "BENCH_elliptic-reference.json"
    out.write_text("kept\n", encoding="utf-8")
    code = tool.main(["elliptic-reference", "HEAD", "--smoke", "--pairs", "1", "--out", str(out),
                      "--workdir", str(tmp_path / "trees")])
    assert code == 1
    assert out.read_text(encoding="utf-8") == "kept\n"
    failed = tmp_path / "BENCH_elliptic-reference.failed.json"
    doc = json.loads(failed.read_text(encoding="utf-8"))
    assert all(row == {"resolved": False, "note": "a run failed"}
               for row in doc["seeds"]["0"]["summary"].values())
