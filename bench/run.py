"""granucodec benchmark: one closed-loop client, operations back to back.

    python3 bench/run.py --workload hirate --seed 1 --seconds 10 --trace 0

It imports `src/granucodec` and the image generators of `tests/conftest.py`
from the checkout it sits in, so nothing is downloaded. Each run

1. loads the codebook trained at the test-fixture config on
   `desk_corpus(20, 512)`, training it in a child process the first time a
   source tree is seen (the file is kept under `.bench_out/`, keyed by a
   digest of the sources), and checks it;
2. builds a `CodecSession` from that file (`setup_s`, again between encodes)
   and encodes every image untimed from the public planning functions, for
   reference containers and the output checks;
3. encodes the image set (PPM load, encode, serialize) in whole passes,
   with session builds and decodes (parse, decode) of the reference
   containers run between the encodes, until encode and decode time
   together reach `--seconds`;
4. checks every output, prints every metric with its unit, and ends with
   one JSON line holding `correct`, `attempted`, `failed` and `metrics`.

With `--trace 1` the codebook is trained in this process with a span around
every public granucodec function (see tracer.py), the codec schedule runs
untraced, and then runs again traced; the JSON line then carries the
per-layer metrics. bench/README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
START = time.perf_counter()

# Codebook training at the test-fixture config (tests/conftest.py).
TRAIN = dict(k=1024, seed=7, iters=10, max_samples=60_000)
CORPUS = dict(n=20, size=512)  # desk_corpus uses image seeds 100..119

# The image set: five generator kinds at two sizes, plus one image whose
# sides are not multiples of 16, so that padding runs.
KINDS = ("noise", "gradient", "blocky", "photo", "waves")
IMAGE_SET = [(kind, s, s) for s in (1024, 512) for kind in KINDS] + [("photo", 744, 1000)]
IMAGE_SEED_BASE = 1000  # image seeds stay clear of the corpus seeds

SETUP_PER_ENCODE = 4  # a build takes ~20 ms; its median needs many samples
DECODE_SHARE = 0.5  # decode time kept at this share of encode time
TAIL_BEYOND = 10  # the tail percentile has at least this many samples above it
RATIO_STEP = 1e-4  # the container stores ratios in units of 1/10000
TRAIN_TIMEOUT_S = 600  # training takes ~25 s; the first run may take 900 s in all


def workload_modes(granularity):
    """Keyword arguments of encode_image for each workload."""
    return {
        # 12.25 indices per block: quantize and Huffman coding do most work
        "hirate": dict(ratios=granularity.RatioTriple(0.70, 0.25, 0.05)),
        # ~2.5 indices per block: the entropy map dominates encode
        "lorate": dict(target_bpp=0.10),
    }


# -- environment stamp ----------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment_stamp(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "cpu_count": os.cpu_count(), "workload_seed": seed}


# -- the codebook ------------------------------------------------------------------

def _source_key() -> str:
    """Digest of everything the trained codebook depends on."""
    import numpy as np

    h = hashlib.sha256(json.dumps([TRAIN, CORPUS, np.__version__]).encode())
    for path in sorted((ROOT / "src" / "granucodec").glob("*.py")) + \
            [ROOT / "tests" / "conftest.py"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _train_to_file(path: str) -> None:
    """Child process: train the codebook at the fixture config and save it."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from conftest import desk_corpus
    from granucodec import training, vq

    cb, tbl = training.train_codebook(desk_corpus(CORPUS["n"], CORPUS["size"]), **TRAIN)
    vq.save_codebook(cb, tbl, path)


# -- one measured sequence -------------------------------------------------------

def _untraced(kind, **counts):
    return nullcontext()


@dataclass
class Sequence:
    """Times and outputs of one pass through the codec schedule."""
    setup_s: list[float] = field(default_factory=list)
    encode_ops: list[tuple[float, int]] = field(default_factory=list)  # (s, image)
    decode_ops: list[tuple[float, int]] = field(default_factory=list)
    ops: list[tuple[str, int]] = field(default_factory=list)  # the schedule run
    containers: dict[int, bytes] = field(default_factory=dict)  # image index -> bytes

    @property
    def encode_s(self) -> float:
        return sum(s for s, _ in self.encode_ops)

    @property
    def decode_s(self) -> float:
        return sum(s for s, _ in self.decode_ops)

    @property
    def wall_s(self) -> float:
        return sum(self.setup_s) + self.encode_s + self.decode_s


class Bench:
    def __init__(self, args, work: Path):
        import numpy as np
        from conftest import desk_corpus, make_raw
        from granucodec import bitstream, granularity, imaging, pipeline
        from granucodec import spatial_entropy, training, vq

        self.np, self.bitstream, self.granularity = np, bitstream, granularity
        self.imaging, self.pipeline, self.training, self.vq = imaging, pipeline, training, vq
        self.spatial_entropy = spatial_entropy
        self.seconds = args.seconds
        self.mode = workload_modes(granularity)[args.workload]
        self.attempted = 0
        self.failures: list[str] = []
        self.codebook_path = work / "bench.cgcb"

        # inputs: the training corpus, and the image set written as PPM files
        self.corpus = desk_corpus(CORPUS["n"], CORPUS["size"])
        self.images = []  # (path, ImagePlane as loaded, true megapixels)
        for i, (kind, h, w) in enumerate(IMAGE_SET):
            path = work / f"img{i:02d}-{kind}-{w}x{h}.ppm"
            raw = make_raw(kind, h, w, IMAGE_SEED_BASE + 16 * args.seed + i)
            imaging.save_ppm(imaging.from_raw(raw), path)
            self.images.append((path, imaging.load_ppm(path), w * h / 1e6))

        # per image, from the untimed reference encode: (gmap, streams, bytes)
        self.reference = None
        self.train_s = 0.0
        self.codebook_hash = None
        self.verified: set[int] = set()  # images whose decode_streams was checked
        self.train_distortion = None
        self.psnr, self.payload_bpp, self.rate_gap = {}, {}, {}  # per image
        self.phases: list[tuple[str, float]] = []
        self.mark("inputs")

    def mark(self, phase: str) -> None:
        """Note the end of a phase of the run, for the report's phase times."""
        self.phases.append((phase, time.perf_counter()))

    def check(self, what: str, fn) -> None:
        """Run one operation and its untimed checks. An exception or a
        mismatch counts as one failure, and the run continues."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # noqa: BLE001 - a failed op must not end the run
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{what}: {problem}")

    def _schedule(self, seq: Sequence):
        """Whole encode passes until encode and decode time reach --seconds.
        Session builds and decodes run between the encodes, so that every
        metric samples the whole run and not one stretch of it: the host's
        speed drifts over tens of seconds."""
        cursor = 0
        while seq.encode_s + seq.decode_s < self.seconds:
            for i in range(len(self.images)):
                yield "encode", i
                for _ in range(SETUP_PER_ENCODE):
                    yield "setup", 0
                while seq.decode_s < DECODE_SHARE * seq.encode_s and not self.failures:
                    yield "decode", cursor % len(self.images)
                    cursor += 1
                if self.failures:  # the run is already wrong; stop measuring
                    return

    def train(self, tracer=None) -> None:
        """Train and save the codebook (one operation), then check the file."""
        op = tracer.operation if tracer is not None else _untraced
        self.check("train", lambda: self._train(op))
        self.mark("train")

    def load_codebook(self, cache_dir: Path) -> None:
        """Use the codebook trained for this source tree, training it first
        in a child process when the checkout has none yet. The child keeps
        training out of this process's peak memory."""
        path = cache_dir / f"codebook-{_source_key()}.cgcb"
        if not path.is_file():
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            try:
                # run() waits for the child, and kills and reaps it if this
                # process is interrupted or the child outlives the timeout
                done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                       "--train-codebook", str(tmp)],
                                      stdout=subprocess.DEVNULL, timeout=TRAIN_TIMEOUT_S)
                if done.returncode == 0:
                    os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        self.check("codebook", lambda: self._load(path))
        self.mark("codebook")

    def _load(self, path: Path):
        cb, tbl = self.vq.load_codebook(path)  # verifies the stored id_hash
        shutil.copyfile(path, self.codebook_path)
        self.codebook_hash = cb.id_hash
        if not (tbl.smoothed and tbl.k == TRAIN["k"]):
            return "saved frequency table is not finalized with k entries"
        self.train_distortion = self._distortion(cb)
        return None

    def codec(self, replay: Sequence | None = None, tracer=None) -> Sequence:
        """Build a session, then run the schedule of encodes, decodes and
        session builds, or replay the schedule of an earlier sequence."""
        seq = Sequence()
        op = tracer.operation if tracer is not None else _untraced
        sessions = []
        self.check("setup", lambda: self._setup(seq, op, sessions))
        if not sessions:
            return seq
        if self.reference is None:
            self.check("reference", lambda: self._encode_reference(sessions[-1]))
            self.mark("reference")
        for kind, i in (replay.ops if replay is not None else self._schedule(seq)):
            seq.ops.append((kind, i))
            if kind == "encode":
                self.check(f"encode img{i}", lambda: self._encode(seq, op, sessions[-1], i))
            elif kind == "decode":
                self.check(f"decode img{i}", lambda: self._decode(seq, op, sessions[-1], i))
            else:
                self.check("setup", lambda: self._setup(seq, op, sessions))
        self.mark("codec")
        return seq

    def _train(self, op):
        t0 = time.perf_counter()
        with op("train", images=len(self.corpus)):
            cb, tbl = self.training.train_codebook(self.corpus, **TRAIN)
            self.vq.save_codebook(cb, tbl, self.codebook_path)
        self.train_s = time.perf_counter() - t0
        self.codebook_hash = cb.id_hash
        cb2, tbl2 = self.vq.load_codebook(self.codebook_path)
        if cb2.id_hash != cb.id_hash:
            return "saved codebook reloads with another id_hash"
        if not (tbl2.smoothed and tbl2.k == TRAIN["k"]):
            return "saved frequency table is not finalized with k entries"
        self.train_distortion = self._distortion(cb)
        return None

    def _distortion(self, cb) -> float:
        """k-means distortion per sample on the training sample, drawn the
        way training.train_codebook draws it."""
        np = self.np
        cells = self.training.corpus_cells(self.corpus)
        rng = np.random.default_rng(TRAIN["seed"])
        pick = rng.choice(cells.shape[0], size=TRAIN["max_samples"], replace=False)
        sample = cells[np.sort(pick)]
        return self.vq.kmeans_distortion(sample, cb) / sample.shape[0]

    def _setup(self, seq: Sequence, op, sessions: list):
        t0 = time.perf_counter()
        with op("setup"):
            session = self.pipeline.CodecSession.from_file(self.codebook_path)
        seq.setup_s.append(time.perf_counter() - t0)
        sessions[:] = [session]
        if session.codebook.id_hash != self.codebook_hash:
            return "session codebook differs from the trained one"
        return None

    def _encode_reference(self, session):
        """Plan and quantize each image untimed with the public entropy_map,
        plan_granularity and quantize_streams, and code it with
        encode_with_map; the decodes start from these containers.

        encode_with_map quantizes through pipeline.quantize_streams, so its
        result is captured there rather than computed a second time."""
        gr, pipeline = self.granularity, self.pipeline
        ratios = self.mode.get("ratios") or gr.ratios_for_target(
            session.rate_table, self.mode["target_bpp"])
        quantize_streams = pipeline.quantize_streams
        captured = []

        def capture(*args, **kwargs):
            result = quantize_streams(*args, **kwargs)
            captured.append(result[1])
            return result

        self.reference = []
        for _, img, _ in self.images:
            emap = self.spatial_entropy.entropy_map(img, session.entropy_cfg)
            gmap = gr.plan_granularity(emap, ratios)
            captured.clear()
            pipeline.quantize_streams = capture
            try:
                c = pipeline.encode_with_map(session, img, gmap)
            finally:
                pipeline.quantize_streams = quantize_streams
            streams = captured[0] if captured else \
                quantize_streams(session, img, gmap)[1]
            self.reference.append((gmap, streams, self.bitstream.serialize_container(c)))

    def _encode(self, seq: Sequence, op, session, i: int):
        bs = self.bitstream
        path = self.images[i][0]
        t0 = time.perf_counter()
        with op("encode", images=1):
            img = self.imaging.load_ppm(path)
            c = self.pipeline.encode_image(session, img, **self.mode)
            data = bs.serialize_container(c)
        seq.encode_ops.append((time.perf_counter() - t0, i))
        seq.containers.setdefault(i, data)
        if data != self.reference[i][2]:
            return "container bytes differ from the planned reference encode"
        back = bs.parse_container(data)
        fields = ("true_w", "true_h", "padded_w", "padded_h", "codebook_hash",
                  "index_bits", "map_bits", "payload")
        if any(getattr(back, f) != getattr(c, f) for f in fields):
            return "parse(serialize(c)) changed a header field"
        if any(abs(a - b) > RATIO_STEP for a, b in
               zip(back.ratios.as_tuple(), c.ratios.as_tuple())):
            return "parse(serialize(c)) changed the ratios"
        return None

    def _decode(self, seq: Sequence, op, session, i: int):
        src = self.images[i][1]
        want_gmap, want_streams, data = self.reference[i]
        t0 = time.perf_counter()
        with op("decode"):
            c = self.bitstream.parse_container(data)
            out = self.pipeline.decode_image(session, c)
        seq.decode_ops.append((time.perf_counter() - t0, i))
        if (out.true_h, out.true_w) != (src.true_h, src.true_w):
            return f"decoded {out.true_w}x{out.true_h}, input {src.true_w}x{src.true_h}"
        if i in self.verified:
            return None
        self.verified.add(i)
        np = self.np
        gmap, streams = self.pipeline.decode_streams(session, c)
        if not np.array_equal(gmap, want_gmap):
            return "decoded granularity map differs from the planned one"
        if len(streams) != len(want_streams) or not all(
                np.array_equal(a, b) for a, b in zip(streams, want_streams)):
            return "decoded index streams differ from the quantized ones"
        _, bpp = self.bitstream.measure_rate(c)
        theory = self.granularity.theoretical_bpp(c.ratios, session.mean_code_len)
        self.psnr[i] = self.imaging.psnr(src, out)
        self.payload_bpp[i] = bpp
        self.rate_gap[i] = abs(bpp - theory)
        return None


# -- metrics -----------------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(per_image: dict) -> float:
    return statistics.fmean(per_image.values()) if per_image else 0.0


def _rate(ops, images) -> float:
    """True megapixels of the images over the sum of each image's median
    operation time; the median drops short bursts of host contention."""
    times = {}
    for s, i in ops:
        times.setdefault(i, []).append(s)
    spent = sum(statistics.median(t) for t in times.values())
    return sum(images[i][2] for i in times) / spent if spent else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest order statistic with at least
    TAIL_BEYOND samples above it, or of the maximum when n is smaller."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n  # 1-based; n - rank lie above
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def end_to_end(bench: Bench, seq: Sequence) -> tuple[dict, dict]:
    """(metrics named in BENCHMARK.json, details printed beside them)."""
    enc_ms = [s * 1e3 for s, _ in seq.encode_ops]
    dec_ms = [s * 1e3 for s, _ in seq.decode_ops]
    metrics = {
        "setup_s": (_median(seq.setup_s), "s"),
        "encode_mpix_s": (_rate(seq.encode_ops, bench.images), "Mpx/s"),
        "payload_bpp": (_mean(bench.payload_bpp), "bpp"),
        "psnr_db": (_mean(bench.psnr), "dB"),
        "rate_gap_bpp": (_mean(bench.rate_gap), "bpp"),
        "train_distortion": (bench.train_distortion or 0.0, "mse"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    latency = {}
    for kind, ms in (("encode", enc_ms), ("decode", dec_ms)):
        value, pct, n = tail(ms)
        latency[f"{kind}_ms_p50"] = {"value": _median(ms), "unit": "ms", "samples": n}
        latency[f"{kind}_ms_tail"] = {"value": value, "unit": "ms", "percentile": pct,
                                      "samples": n}
    details = {
        # decode speed swings up to 1.8x between runs on a shared host,
        # more than any bound allows, so it is reported but not gated
        "decode_mpix_s": {"value": _rate(seq.decode_ops, bench.images), "unit": "Mpx/s"},
        "latency": latency,
        "encode_ms_by_image": [(i, s * 1e3) for s, i in seq.encode_ops],
        "decode_ms_by_image": [(i, s * 1e3) for s, i in seq.decode_ops],
        "setup_builds": len(seq.setup_s),
        "train_s": bench.train_s or None,  # only when this run trained
        "phase_s": [(name, t - prev) for (name, t), (_, prev) in
                    zip(bench.phases, [("start", START)] + bench.phases)],
        "error_rate": len(bench.failures) / bench.attempted if bench.attempted else 0.0,
    }
    return metrics, details


def output_digest(bench: Bench, seq: Sequence) -> dict:
    h = hashlib.sha256()
    for i in sorted(seq.containers):
        h.update(seq.containers[i])
    return {"containers_sha256": h.hexdigest(), "containers": len(seq.containers),
            "codebook_id_hash": f"{bench.codebook_hash or 0:016x}"}


# -- entry point -----------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("hirate", "lorate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def traced_run(bench: Bench, report: dict, out_dir: Path, name: str):
    """Train with spans on, run the codec schedule untraced, then replay it
    with spans on. Returns the untraced sequence and the per-layer metrics.

    Training runs once, traced; the tracing overhead is measured on the
    setup, encode and decode operations, which run both ways."""
    import tracer as tracing

    tr = tracing.Tracer()
    with tracing.installed(tr) as absent:
        bench.train(tr)
    seq = bench.codec()
    with tracing.installed(tr):
        traced = bench.codec(replay=seq, tracer=tr)
    bench.check("traced output", lambda: None if traced.containers == seq.containers
                else "tracing changed the container bytes")
    layers = tracing.layer_metrics(tr, absent, seq.wall_s,
                                   bench.train_s + traced.wall_s, traced.wall_s)
    spans = out_dir / f"spans-{name}.jsonl"
    with open(spans, "w") as f:
        for rec in tr.records():
            f.write(json.dumps(rec) + "\n")
    report["absent_layers"] = absent
    report["spans_file"] = str(spans.relative_to(ROOT))
    units = tracing.metric_units()
    return seq, {k: {"value": layers[k], "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--train-codebook":  # the training child
        _train_to_file(argv[1])
        return 0
    args = parse_args(argv)
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "granucodec" / "__init__.py").is_file() or \
            not (tests / "conftest.py").is_file():
        print(f"bench: no granucodec source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(tests)]
    import numpy as np

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "stamp": environment_stamp(np, args.seed)}
    try:
        bench = Bench(args, work)
        if args.trace:
            seq, result_metrics = traced_run(bench, report, out_dir, name)
            report["per_layer"] = result_metrics
        else:
            bench.load_codebook(out_dir)
            seq = bench.codec()
        metrics, details = end_to_end(bench, seq)
        report["digest"] = output_digest(bench, seq)
        report["details"] = details
        report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        if not args.trace:
            result_metrics = report["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    report["failures"] = bench.failures[:20]
    with open(out_dir / f"{name}.json", "w") as f:
        json.dump(report, f, indent=1)

    print(f"granucodec bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("stamp:", json.dumps(report["stamp"]))
    print("digest:", json.dumps(report["digest"]))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<18} {value:14.6f} {unit}")
    for key, d in [("decode_mpix_s", details["decode_mpix_s"]), *details["latency"].items()]:
        where = f"p{d['percentile']:.1f} of " if "percentile" in d else ""
        count = f"{where}{d['samples']} samples, " if "samples" in d else ""
        print(f"  {key:<18} {d['value']:14.6f} {d['unit']}  ({count}not gated)")
    print(f"  {'error_rate':<18} {len(bench.failures) / bench.attempted:14.6f}  "
          f"({len(bench.failures)} of {bench.attempted} operations failed)")
    for msg in bench.failures[:5]:
        print("  failure:", msg)
    if args.trace:
        print(f"per-layer metrics below; spans in {report['spans_file']}, "
              f"absent layers: {report['absent_layers'] or 'none'}")
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
