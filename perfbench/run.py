"""Benchmark of the litterscan CLI chain, end to end and layer by layer.

    python3 perfbench/run.py --workload scene-train --seed 0 --seconds 25 --trace 0

Runs one workload in this process through `litterscan.cli.main(argv)`:
set-up (inputs, the program's own set-up calls, one untimed warm-up pass),
then timed passes of the workload's chain until their summed time reaches
--seconds (at least three).  The first timed pass is checked by checks.py,
every later one against the first pass's artifact digests.  The last line
of stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics (tracing.py, tracemalloc) with --trace 1.  See README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS and OpenMP thread, fixed before numpy is first imported here or
# in the input generator, so a pass never competes with its own threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_ENV)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MB = float(1 << 20)
MIN_PASSES = 3

END_TO_END = (("chain_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Per-layer metrics, in BENCHMARK.json order.
CLI_STEPS = ("import", "resample", "train", "predict", "eval",
             "index_fdi", "index_combined", "index_b8b9")
TIMED_SPANS = (
    "mlp.train", "mlp.loss", "mlp.gradient", "mlp.with_weights",
    "mlp.predict_map", "mlp.forward_batch",
    "dataset.apply_normalizer", "dataset.balance", "dataset.split",
    "dataset.extract_samples", "dataset.normalize_set",
    "resample.load_cube", "resample.align_stack", "resample.resample_band",
    "resample.save_cube",
    "raster_io.import_pgm_band", "raster_io.save_stack", "raster_io.load_stack",
    "raster_io.write_mask", "raster_io.write_float_raster", "raster_io.read_mask",
    "indexes.fdi", "indexes.ndvi", "indexes.combined_index_mask", "indexes.threshold_map",
    "evaluation.confusion",
)
COUNTED_SPANS = {
    "mlp.loss_calls": "mlp.loss",
    "mlp.gradient_calls": "mlp.gradient",
    "mlp.with_weights_calls": "mlp.with_weights",
    "resample.load_cube_calls": "resample.load_cube",
    "resample.kernel_calls": "resample.lanczos3_kernel",
}
SETUP_SPANS = ("synthetic.make_scene",)  # timed over the set-up, not per pass


def per_layer_metrics() -> list[tuple[str, str]]:
    return ([(f"cli.{s}_s", "s") for s in CLI_STEPS]
            + [(f"cli.{s}_peak_mb", "MB") for s in CLI_STEPS]
            + [(f"{span}_s", "s") for span in TIMED_SPANS]
            + [(name, "count") for name in COUNTED_SPANS]
            + [("mlp.train_iterations", "count"), ("raster_io.bytes_written_mb", "MB")]
            + [(f"{span}_s", "s") for span in SETUP_SPANS])


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Step:
    name: str
    argv: list[str]
    known_fault: str | None = None  # stderr text of a fault that fails every time


class Workload:
    """Inputs under work/in, pass outputs under work/out."""

    name = ""
    generator: str | None = None  # inputs.py kind, run as a child process
    size = 0

    def __init__(self, work: Path, seed: int, size: int | None = None):
        self.seed = seed
        self.size = size or self.size
        self.inp = work / "in"
        self.out = work / "out"

    def i(self, name: str) -> str:
        return str(self.inp / name)

    def o(self, name: str) -> str:
        return str(self.out / name)

    def setup(self, cli_run) -> None:
        """The program's own set-up calls."""

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def check(self, succeeded: set[str]) -> dict:
        """Check one pass's outputs; returns values the traced run reports."""
        raise NotImplementedError


class SceneTrain(Workload):
    """Classifier route on a labelled make-synthetic scene; training dominates."""

    name = "scene-train"
    size = 200

    def setup(self, cli_run) -> None:
        cli_run(["make-synthetic", "--out-cube", self.i("scene.cube.json"),
                 "--out-mask", self.i("truth.pgm"), "--rows", str(self.size),
                 "--cols", str(self.size), "--seed", str(self.seed)])

    def steps(self) -> list[Step]:
        return [
            Step("train", ["train", "--cube", self.i("scene.cube.json"),
                           "--mask", self.i("truth.pgm"), "--out", self.o("model.json")]),
            Step("predict", ["predict", "--model", self.o("model.json"),
                             "--cube", self.i("scene.cube.json"), "--out", self.o("pred.pgm"),
                             "--map-out", self.o("scores.f32")]),
            Step("eval", ["eval", "--pred", self.o("pred.pgm"), "--truth", self.i("truth.pgm"),
                          "--out", self.o("eval.json")]),
        ]

    def check(self, succeeded: set[str]) -> dict:
        iterations = checks.check_training_report(self.o("model.json.report.json"),
                                                  self.size, self.size)
        checks.check_prediction(self.o("model.json"), self.i("scene.cube.json"),
                                self.o("scores.f32"), self.o("pred.pgm"))
        checks.check_confusion(self.o("pred.pgm"), self.i("truth.pgm"), self.o("eval.json"))
        return {"train_iterations": iterations}


# Index thresholds: they split each scene into two sizeable classes.
TILE_FDI_MIN, TILE_NDVI_MAX = -1100.0, 0.2
COAST_FDI_MIN, COAST_NDVI_MAX = 300.0, 0.1


class TilePredict(Workload):
    """Mapping route on a seeded multi-megapixel cube; I/O, inference and
    index maps dominate, training runs only in set-up."""

    name = "tile-predict"
    generator = "tile"
    size = 2000
    scene_size = 100  # the make-synthetic scene the model is trained on

    def setup(self, cli_run) -> None:
        cli_run(["make-synthetic", "--out-cube", self.i("scene.cube.json"),
                 "--out-mask", self.i("scene.pgm"), "--rows", str(self.scene_size),
                 "--cols", str(self.scene_size), "--seed", str(self.seed)])
        cli_run(["train", "--cube", self.i("scene.cube.json"), "--mask", self.i("scene.pgm"),
                 "--out", self.i("model.json")])

    def steps(self) -> list[Step]:
        tile = self.i("tile.json")
        return [
            Step("predict", ["predict", "--model", self.i("model.json"), "--cube", tile,
                             "--out", self.o("pred.pgm"), "--map-out", self.o("scores.f32")]),
            Step("eval", ["eval", "--pred", self.o("pred.pgm"), "--truth", self.i("truth.pgm"),
                          "--out", self.o("eval.json")]),
            Step("index_fdi", ["index", "--cube", tile, "--method", "fdi",
                               "--out", self.o("fdi.f32"), "--threshold", str(TILE_FDI_MIN),
                               "--mask-out", self.o("fdi.pgm")]),
            Step("index_combined", ["index", "--cube", tile, "--method", "combined",
                                    "--ndvi-max", str(TILE_NDVI_MAX),
                                    "--fdi-min", str(TILE_FDI_MIN),
                                    "--out", self.o("combined.pgm")]),
        ]

    def check(self, succeeded: set[str]) -> dict:
        tile = self.i("tile.json")
        checks.check_prediction(self.i("model.json"), tile, self.o("scores.f32"),
                                self.o("pred.pgm"))
        checks.check_confusion(self.o("pred.pgm"), self.i("truth.pgm"), self.o("eval.json"))
        checks.check_fdi(tile, self.o("fdi.f32"), self.o("fdi.pgm"), TILE_FDI_MIN)
        checks.check_combined(tile, self.o("combined.pgm"), TILE_NDVI_MAX, TILE_FDI_MIN)
        return {}


class StackAlign(Workload):
    """Preprocessing shared by both routes: PGM import, Lanczos3 alignment of
    a coastline stack, index maps on the aligned cube."""

    name = "stack-align"
    generator = "bands"
    size = 1800  # 10 m grid; 20 m and 60 m bands are 1/2 and 1/6 of it

    def steps(self) -> list[Step]:
        cube = self.o("cube.json")
        bands = [arg for bid in inputs.BAND_IDS
                 for arg in ("--band", f"{bid}={self.i(bid + '.pgm')}")]
        return [
            Step("import", ["import", *bands, "--extent-m", str(self.size * 10.0),
                            "--out", self.o("stack.json")]),
            Step("resample", ["resample", "--manifest", self.o("stack.json"), "--out", cube]),
            Step("index_fdi", ["index", "--cube", cube, "--method", "fdi",
                               "--out", self.o("fdi.f32"), "--threshold", str(COAST_FDI_MIN),
                               "--mask-out", self.o("fdi.pgm")]),
            Step("index_combined", ["index", "--cube", cube, "--method", "combined",
                                    "--ndvi-max", str(COAST_NDVI_MAX),
                                    "--fdi-min", str(COAST_FDI_MIN),
                                    "--out", self.o("combined.pgm")]),
            # Lanczos3 undershoot makes the aligned B9 negative at the coast,
            # which normalized_difference rejects.
            Step("index_b8b9", ["index", "--cube", cube, "--method", "b8b9",
                                "--out", self.o("b8b9.f32")],
                 known_fault="inputs must be nonnegative"),
        ]

    def check(self, succeeded: set[str]) -> dict:
        cube = self.o("cube.json")
        checks.check_alignment({bid: self.i(bid + ".pgm") for bid in inputs.BAND_IDS}, cube,
                               constant_band="B10")
        checks.check_fdi(cube, self.o("fdi.f32"), self.o("fdi.pgm"), COAST_FDI_MIN)
        checks.check_combined(cube, self.o("combined.pgm"), COAST_NDVI_MAX, COAST_FDI_MIN)
        if "index_b8b9" in succeeded:
            checks.check_b8b9(cube, self.o("b8b9.f32"))
        return {}


WORKLOADS = {w.name: w for w in (SceneTrain, TilePredict, StackAlign)}


# ---------------------------------------------------------------------------
# runner


class StepError(Exception):
    """A step failed in a way that is not the workload's known fault."""


@dataclass
class PassRecord:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    step_s: dict = field(default_factory=dict)
    step_peak_mb: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    bytes_written: int = 0
    digests: dict = field(default_factory=dict)


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def digests(directory: Path) -> dict[str, str]:
    out = {}
    for path in sorted(directory.iterdir()):
        with open(path, "rb") as f:
            out[path.name] = hashlib.file_digest(f, "sha256").hexdigest()
    return out


def run_pass(cli, wl: Workload, traced: bool, reference: PassRecord | None = None,
             check: bool = True) -> PassRecord:
    """One pass of the chain.  The first checked pass gets the independent
    checks; later passes must reproduce its artifacts byte for byte, as the
    program promises for reruns on the same inputs."""
    rec = PassRecord()
    succeeded = set()
    start = time.perf_counter()
    for step in wl.steps():
        if traced:
            tracemalloc.reset_peak()
        t = time.perf_counter()
        rc, err = call_cli(cli, step.argv)
        rec.step_s[step.name] = time.perf_counter() - t
        if traced:
            rec.step_peak_mb[step.name] = tracemalloc.get_traced_memory()[1] / MB
        rec.attempted += 1
        if rc == 0:
            succeeded.add(step.name)
        elif step.known_fault and step.known_fault in err:
            rec.failed += 1
        else:
            raise StepError(f"{step.name} exited {rc}: {err.strip()}")
    rec.seconds = time.perf_counter() - start
    rec.bytes_written = sum(p.stat().st_size for p in wl.out.iterdir())
    if not check:
        return rec
    rec.digests = digests(wl.out)
    if reference is None:
        rec.extra = wl.check(succeeded)
    else:
        changed = [n for n in rec.digests.keys() | reference.digests.keys()
                   if rec.digests.get(n) != reference.digests.get(n)]
        if changed:
            raise checks.CheckError(f"{sorted(changed)} differ from the first checked pass")
        rec.extra = reference.extra
    return rec


def layer_values(rec: PassRecord) -> dict:
    v = {}
    for s in CLI_STEPS:
        v[f"cli.{s}_s"] = rec.step_s.get(s, 0.0)
        v[f"cli.{s}_peak_mb"] = rec.step_peak_mb.get(s, 0.0)
    for span in TIMED_SPANS:
        v[f"{span}_s"] = rec.spans.get(span, (0.0, 0))[0]
    for name, span in COUNTED_SPANS.items():
        v[name] = rec.spans.get(span, (0.0, 0))[1]
    v["mlp.train_iterations"] = rec.extra.get("train_iterations", 0)
    v["raster_io.bytes_written_mb"] = rec.bytes_written / MB
    return v


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        size: int | None = None, min_passes: int = MIN_PASSES) -> dict:
    """Run one workload in `work` and return the result object."""
    wl = WORKLOADS[workload](work, seed, size)
    wl.inp.mkdir(parents=True)
    wl.out.mkdir()
    excluded = 0.0  # the benchmark's own input generation
    if wl.generator:
        t = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "inputs.py"), wl.generator,
                        "--seed", str(seed), "--size", str(wl.size), "--out", str(wl.inp)],
                       check=True, env={**os.environ, **THREAD_ENV})
        excluded = time.perf_counter() - t

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from litterscan import cli

    def setup_call(argv):
        rc, err = call_cli(cli, argv)
        if rc:
            raise StepError(f"set-up {argv[0]} exited {rc}: {err.strip()}")

    tracer = tracing.Tracer() if trace else contextlib.nullcontext()
    with tracer:
        wl.setup(setup_call)
        setup_spans = tracer.take() if trace else {}
        if trace:
            tracemalloc.start()
        try:
            run_pass(cli, wl, trace, check=False)  # warm-up, untimed
            setup_s = time.perf_counter() - T0 - excluded
            records, correct, error = [], True, ""
            while len(records) < min_passes or sum(r.seconds for r in records) < seconds:
                if trace:
                    tracer.take()
                try:
                    rec = run_pass(cli, wl, trace, records[0] if records else None)
                except (checks.CheckError, StepError) as e:
                    correct, error = False, f"{type(e).__name__}: {e}"
                    break
                if trace:
                    rec.spans = tracer.take()
                records.append(rec)
        finally:
            if trace:
                tracemalloc.stop()

    chain = [r.seconds for r in records]
    print(f"{workload} seed={seed} trace={int(trace)} {THREAD_ENV} passes={len(chain)} "
          f"chain_s={[round(c, 3) for c in chain]} {error}", file=sys.stderr)
    if not records:
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    if trace:
        units = dict(per_layer_metrics())
        per_pass = [layer_values(r) for r in records]
        # median_low keeps a count an observed whole number
        values = {name: (statistics.median_low if units[name] == "count" else statistics.median)(
            [p[name] for p in per_pass]) for name in per_pass[0]}
        for span in SETUP_SPANS:
            values[f"{span}_s"] = setup_spans.get(span, (0.0, 0))[0]
    else:
        values = {"chain_s": statistics.median(chain),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "setup_s": setup_s}
        units = dict(END_TO_END)
    return {
        "correct": correct,
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="litterscan CLI benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "litterscan" / "__init__.py").is_file():
        print(f"perfbench: no litterscan sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
