#!/usr/bin/env python3
"""Time one benchmark workload at a parent commit against HEAD, in alternating pairs.

    python3 tools/bench_pair.py elliptic-reference HEAD~1 --pairs 10 --seeds 0,7
    python3 tools/bench_pair.py manufactured-select HEAD --smoke --pairs 1

Each side runs from its own `git worktree`: the parent commit, HEAD, and a
second worktree of HEAD for the A/A control. The worktrees are sibling
directories whose paths have one length, each gets a copy of this working
tree's `perfbench/` (so every side runs the same benchmark code), and each
tree's bytecode is compiled before the first timed run. So the sides differ
only in the library code they run, and the control measures what difference
two checkouts of one commit still show.

Per seed, the control runs first: HEAD against its second worktree, over as
many pairs as the comparison. Then the parent runs against HEAD. Each run is
`perfbench/run.py` in a fresh process, and the side that runs first flips
every pair. A metric's ratio is HEAD's median over the parent's; it is marked
resolved only when it lies outside the control's spread, [1/s, s] for s the
largest of the control's per-pair ratios and their reciprocals.

The result, `BENCH_<workload>.json` at the repository root unless --out says
otherwise, holds the machine line, both commits, the control, every pair,
and per metric the medians, quartiles, ratio and the pairs HEAD won. When a
run fails its checks the record goes to BENCH_<workload>.failed.json
instead, so a committed record is never overwritten by a broken one. Each run
lasts BENCHMARK.json's run_seconds, or 0 seconds with --smoke. Only committed
code is measured on the HEAD side. The tool's own worktrees are removed at
the end. The exit code is 0 when every run passed its checks, 1 when one did
not, and 2 when a revision or a worktree could not be made.
"""
import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
# one name length, so the three worktree paths have one length
SIDES = ("parent", "change", "second")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workload", choices=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("parent", help="the revision to compare HEAD against")
    p.add_argument("--pairs", type=int, default=10, help="pairs per seed, control and comparison each")
    p.add_argument("--seeds", default="0", help="comma-separated run seeds")
    p.add_argument("--smoke", action="store_true", help="run.py's tiny inputs, for a quick check")
    p.add_argument("--out", type=Path, default=None, help="default: BENCH_<workload>.json at the root")
    p.add_argument("--workdir", type=Path, default=None,
                   help="where the worktrees go (default: a new temporary directory)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, got {args.pairs}")
    args.seeds = [int(s) for s in args.seeds.split(",")]
    args.seconds = 0.0 if args.smoke else float(BENCHMARK["run_seconds"])
    if args.out is None:
        args.out = ROOT / f"BENCH_{args.workload}.json"
    return args


def tool_args(args) -> str:
    """The options that shape the record; --out and --workdir only place files."""
    return " ".join([args.workload, args.parent, "--pairs", str(args.pairs), "--seeds",
                     ",".join(map(str, args.seeds))] + (["--smoke"] if args.smoke else []))


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def make_tree(rev: str, path: Path) -> None:
    """A worktree of rev at path, with this tree's perfbench/ and compiled bytecode."""
    git("worktree", "add", "--detach", "--quiet", str(path), rev)
    shutil.rmtree(path / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=path,
                   check=True, capture_output=True)


def run_side(path: Path, args, seed: int) -> dict:
    """One fresh `perfbench/run.py` process in the worktree at path."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"exit": proc.returncode, "correct": False}
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine:")), None)
    return {**{k: result["metrics"][k]["value"] for k in METRICS},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": proc.returncode == 0 and result["correct"], "machine": machine}


def run_pairs(a: str, b: str, trees: dict, args, seed: int) -> list:
    """args.pairs pairs of sides a and b, a first in the even pairs and b in the odd ones."""
    pairs = []
    for i in range(args.pairs):
        order = (a, b) if i % 2 == 0 else (b, a)
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_side(trees[side], args, seed)
        print(f"seed {seed} pair {i + 1}/{args.pairs} {a}/{b}: " + ", ".join(
            f"{k} {pair[a].get(k, float('nan')):.4g}/{pair[b].get(k, float('nan')):.4g}"
            for k in METRICS), file=sys.stderr)
        pairs.append(pair)
    return pairs


def quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def summarize(pairs: list, base: str, new: str, noise=None) -> dict:
    """Per metric: each side's median and quartiles, new's median over base's, and new's wins.

    With noise (the control's summary) a ratio inside the control's spread
    is marked unresolved.
    """
    out = {}
    for name, metric in METRICS.items():
        if not all(p[side].get("correct") for p in pairs for side in (base, new)):
            out[name] = {"resolved": False, "note": "a run failed"}
            continue
        b, n = [p[base][name] for p in pairs], [p[new][name] for p in pairs]
        per_pair = [y / x for x, y in zip(b, n)]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        row = {base: quartiles(b), new: quartiles(n),
               "ratio": statistics.median(n) / statistics.median(b),
               "wins": sum(sign * (y - x) < 0.0 for x, y in zip(b, n)), "pairs": len(pairs),
               "bound": metric["bound"]}
        if noise is None:
            s = max(max(r, 1.0 / r) for r in per_pair)
            row["spread"] = [1.0 / s, s]
        else:
            lo, hi = noise[name].get("spread", (0.0, float("inf")))  # no control, no resolution
            row["resolved"] = not lo <= row["ratio"] <= hi
        out[name] = row
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        commits = {"parent": git("rev-parse", f"{args.parent}^{{commit}}"),
                   "change": git("rev-parse", "HEAD^{commit}")}
    except subprocess.CalledProcessError as exc:
        print(f"bench_pair: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    if git("status", "--porcelain", "--", "src"):
        print("bench_pair: uncommitted edits under src/ are not measured; the change side "
              "is HEAD", file=sys.stderr)
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="bench-pair-", dir=args.workdir))
    trees = {side: base / side for side in SIDES}
    doc = {"workload": args.workload,
           "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                      f"--seconds {args.seconds:g}" + (" --smoke" if args.smoke else ""),
           "tool": "python3 tools/bench_pair.py " + tool_args(args),
           "note": ("'change' is HEAD and 'parent' the given revision; 'second' is a second "
                    "worktree of HEAD, run against it first as the A/A control; each run is a "
                    "fresh process in its own worktree, and 'first' is the side run first in "
                    "a pair; ratio is the median of 'change' over that of the other side; "
                    "'resolved' is false for a ratio inside the control's spread"),
           "commits": commits, "machine": None, "metrics": METRICS, "seeds": {}}
    try:
        try:
            for side in SIDES:
                make_tree(commits["parent" if side == "parent" else "change"], trees[side])
        except subprocess.CalledProcessError as exc:
            print(f"bench_pair: cannot make the worktrees: {exc.stderr}", file=sys.stderr)
            return 2
        for seed in args.seeds:
            control = run_pairs("change", "second", trees, args, seed)
            pairs = run_pairs("parent", "change", trees, args, seed)
            noise = summarize(control, "second", "change")
            doc["seeds"][str(seed)] = {
                "control": {"pairs": control, "summary": noise},
                "pairs": pairs, "summary": summarize(pairs, "parent", "change", noise)}
    finally:
        for path in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT,
                           check=False, capture_output=True)
        shutil.rmtree(base, ignore_errors=True)
    runs = [p[side] for s in doc["seeds"].values() for p in s["control"]["pairs"] + s["pairs"]
            for side in SIDES if side in p]
    machines = [run.pop("machine", None) for run in runs]
    doc["machine"] = next((m for m in machines if m), None)
    correct = all(run.get("correct") for run in runs)
    out = args.out if correct else args.out.with_suffix(".failed.json")
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for seed, s in doc["seeds"].items():
        for name, row in s["summary"].items():
            if "ratio" in row:
                lo, hi = s["control"]["summary"][name].get("spread", (math.nan, math.nan))
                print(f"seed {seed} {name}: {row['ratio']:.3f}x the parent's median, better in "
                      f"{row['wins']} of {row['pairs']} pairs, "
                      f"{'' if row['resolved'] else 'un'}resolved (control {lo:.3f}-{hi:.3f})")
    print(f"wrote {out}" + ("" if correct else ": a run failed its checks"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
