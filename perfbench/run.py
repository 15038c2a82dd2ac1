"""topicforge benchmark: seeded inputs, timed ``topicforge all`` runs, checks.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload longtail --seed 1 --seconds 25 --trace 0

Each workload is a closed loop of one client: the next ``topicforge all``
child process starts only after the previous one has finished, until
``--seconds`` have passed (at least one run). Every run's outputs are
checked (``checker.py``); a non-zero exit, a missing artifact or a failed
check counts the run as failed. With ``--trace 0`` the last stdout line is
the end-to-end metrics. With ``--trace 1`` one more run follows, a child
that installs span wrappers before running the pipeline (``tracing.py``),
and the last line is the per-layer metrics. ``--workload all`` runs every workload and prints every
metric of each.

The program is imported from ``src/`` of the current directory only. BLAS
and OpenMP are pinned to one thread, which is at or below ``nproc`` on any
machine. Everything is written under ``.perfbench/`` in the current
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "ok_share": "ratio", "intent_auc": "ratio",
                    "shelf_xent": "nat"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")) and not name.endswith("samples_per_s"):
        return "s"
    if name.endswith("samples_per_s"):
        return "1/s"
    if name.endswith(("_rate", "_share", "token_fill", "stage_coverage")):
        return "ratio"
    return "count"


class Bench:
    """One workload and seed: inputs, template and run directories."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.base = root / ".perfbench" / f"{workload}-{seed}"
        self.inputs = self.base / "inputs"
        self.config = self.inputs / "config.yaml"
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(root / "src")}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- children ---------------------------------------------------------

    def child(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Run one child process; (wall seconds, its own max RSS MB, exit)."""
        with open(log, "w", encoding="utf-8") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root,
                                    env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def topicforge_all(self, config: Path, workdir: Path,
                       traced_to: Path | None = None):
        args = ["all", "--config", str(config), "--workdir", str(workdir)]
        if traced_to is None:
            argv = ["-m", "topicforge.cli", *args]
        else:
            argv = [str(Path(__file__).with_name("tracing.py")), str(traced_to),
                    f"{self.workload}-{self.seed}-traced", *args]
        return self.child(argv, workdir.parent / "log.txt")

    def verified(self, workdir: Path, config: Path, code: int,
                 expect_digest: str | None) -> str | None:
        """Check one finished run; returns its digest, None if it failed."""
        import checker

        self.attempted += 1
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            problems = checker.check_run(workdir, config)
        digest = None
        if not problems:
            digest = checker.run_digest(workdir)
            if expect_digest is not None and digest != expect_digest:
                problems.append("outputs differ from the reference run")
        if problems:
            self.failed += 1
            self.problems += [f"{workdir}: {p}" for p in problems]
            return None
        return digest

    # -- set-up -----------------------------------------------------------

    def generate(self, out: Path) -> str:
        """Write the inputs into ``out``, timing it; returns their hash."""
        start = time.perf_counter()
        gen.write_inputs(self.workload, self.seed, out)
        self.gen_times.append(time.perf_counter() - start)
        return hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted(out.iterdir()))).hexdigest()

    def setup(self) -> None:
        """Generate the inputs and, for retune, the template workdir."""
        shutil.rmtree(self.base, ignore_errors=True)
        self.gen_times: list[float] = []
        self.inputs_hash = self.generate(self.inputs)
        # load the interpreter and numpy into the page cache, so the first
        # timed run does not pay for reading them from disk
        self.child(["-c", "import topicforge.pipeline"], self.base / "warmup.log")
        self.template_s = 0.0
        self.reference = None
        if self.workload == "retune":
            template = self.base / "template" / "work"
            template.parent.mkdir(parents=True)
            self.template_s, _, code = self.topicforge_all(self.config, template)
            self.verified(template, self.config, code, None)
            self.template = template
            # the edited copy of the config, and a cold run on it that every
            # rerun must match byte for byte
            self.run_config = self.inputs / "retune.yaml"
            self.run_config.write_text(
                gen.config_text(self.workload, self.seed, gen.RETUNE_THRESHOLD),
                encoding="utf-8")
            reference = self.base / "reference" / "work"
            reference.parent.mkdir(parents=True)
            _, _, code = self.topicforge_all(self.run_config, reference)
            self.reference = self.verified(reference, self.run_config, code, None)
        else:
            self.run_config = self.config

    def prepare(self, name: str) -> tuple[Path, float]:
        """A run directory; for retune a copy of the template workdir."""
        workdir = self.base / name / "work"
        workdir.parent.mkdir(parents=True)
        start = time.perf_counter()
        if self.workload == "retune":
            shutil.copytree(self.template, workdir)
        return workdir, time.perf_counter() - start

    # -- measurement ------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        self.setup()
        walls, rss, copies = [], [], []
        first_ok: Path | None = None
        expect = self.reference
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            workdir, copy_s = self.prepare(f"run{k}")
            copies.append(copy_s)
            wall, peak, code = self.topicforge_all(self.run_config, workdir)
            digest = self.verified(workdir, self.run_config, code, expect)
            if digest is not None:
                walls.append(wall)
                rss.append(peak)
                expect = expect or digest
                if first_ok is None:
                    first_ok = workdir
            if workdir != first_ok:
                shutil.rmtree(workdir.parent)
            # set-up is timed again between runs, so its median spans the
            # measurement as the wall times' does; each write must be equal
            if self.generate(self.base / "regen") != self.inputs_hash:
                self.problems.append("generator wrote different inputs for one seed")
            k += 1
        self.digest = expect
        self.walls = walls
        self.first_ok = first_ok
        return {"wall_s": statistics.median(walls) if walls else float("nan"),
                "peak_rss_mb": statistics.median(rss) if rss else float("nan"),
                "setup_s": (statistics.median(self.gen_times) + self.template_s
                            + statistics.median(copies))}

    def quality(self) -> dict:
        import quality

        if self.first_ok is None:
            return {"intent_auc": float("nan"), "shelf_xent": float("nan"),
                    "shelf_accuracy": float("nan")}
        return quality.scores(self.first_ok, self.inputs)

    def traced(self) -> dict:
        import tracing

        workdir, _ = self.prepare("traced")
        trace_file = workdir.parent / "trace.json"
        wall, _, code = self.topicforge_all(self.run_config, workdir, trace_file)
        if self.verified(workdir, self.run_config, code, self.digest) is None:
            return {}
        metrics = tracing.layer_metrics(
            json.loads(trace_file.read_text(encoding="utf-8")))
        metrics["trace.overhead_s"] = (wall - statistics.median(self.walls)
                                       if self.walls else float("nan"))
        return metrics


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    bench = Bench(root, workload, seed)
    e2e = bench.measure(seconds)
    if trace:
        metrics = {name: (value, layer_unit(name))
                   for name, value in sorted(bench.traced().items())}
    else:
        e2e.update(bench.quality())
        e2e["ok_share"] = 1.0 - bench.failed / bench.attempted
        metrics = {name: (e2e[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    print(f"{workload}: {len(bench.walls)} timed runs, wall_s "
          + " ".join(f"{w:.3f}" for w in bench.walls), file=sys.stderr)
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if not bench.problems:
        shutil.rmtree(bench.base, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{workload:<9} {name:<45} {value:>14.6g} {unit}")
    if not trace:
        print(f"{workload:<9} {'shelf_accuracy (not gated)':<45} "
              f"{e2e['shelf_accuracy']:>14.6g} ratio")
    return {"correct": not bench.problems and len(metrics) > 0,
            "attempted": bench.attempted, "failed": bench.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*gen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "topicforge" / "__init__.py").is_file():
        print("perfbench: run from a topicforge checkout (no src/topicforge here)",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(root / "src"))

    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{n}": m for w, r in results.items()
                              for n, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
