"""Command-line interface.

Subcommands: train-codebook, encode, decode, stats, rate-table, inspect;
see --help of each subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import bitstream, granularity, imaging, pipeline, training, vq
from .granularity import RatioTriple

def _parse_ratios(text: str) -> RatioTriple:
    """The argparse type of an r1,r2,r3 flag: a bad triple is a usage error
    that argparse reports with the flag's name."""
    try:
        r1, r2, r3 = (float(p) for p in text.split(","))
        return RatioTriple(r1, r2, r3)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ratio triple {text!r}: {exc}") from None


def _report(fields: dict, as_json: bool) -> None:
    """Print a report as one JSON line or as `key: value` lines."""
    print(json.dumps(fields) if as_json
          else "\n".join(f"{key}: {value}" for key, value in fields.items()))


def cmd_train_codebook(args) -> None:
    paths = sorted(
        os.path.join(args.corpus, n) for n in os.listdir(args.corpus)
        if n.lower().endswith(".ppm"))
    if not paths:
        raise ValueError(f"no .ppm files in {args.corpus}")
    images = [imaging.load_ppm(p) for p in paths]
    # only the flags given: the parser states no default, train_codebook does
    knobs = {n: v for n, v in vars(args).items() if n in ("k", "seed", "iters", "max_samples")}
    cb, tbl = training.train_codebook(images, **knobs)
    vq.save_codebook(cb, tbl, args.out)
    print(f"trained k={cb.k} d={cb.d} codebook from {len(images)} images -> {args.out}")


def cmd_encode(args) -> None:
    session = pipeline.CodecSession.from_file(args.codebook)
    img = imaging.load_ppm(args.input)
    container = pipeline.encode_image(session, img, ratios=args.ratios, target_bpp=args.bpp)
    with open(args.out, "wb") as f:
        f.write(bitstream.serialize_container(container))
    total, payload = bitstream.measure_rate(container)
    r = container.ratios
    print(f"encoded {args.input} at ratios ({r.r1:.4f}, {r.r2:.4f}, {r.r3:.4f}): "
          f"{total:.4f} bpp ({payload:.4f} payload-only)")


def cmd_decode(args) -> None:
    session = pipeline.CodecSession.from_file(args.codebook)
    img = pipeline.decode_image(session, bitstream.read_container(args.input))
    imaging.save_ppm(img, args.out)
    print(f"decoded {args.input} -> {args.out} ({img.true_w}x{img.true_h})")


def cmd_stats(args) -> None:
    session = pipeline.CodecSession.from_file(args.codebook)
    img = imaging.load_ppm(args.input)
    ratios, emap, gmap = pipeline.plan_image(session, img, args.ratios, args.bpp)
    container = pipeline.encode_with_map(session, img, gmap)
    total, payload = bitstream.measure_rate(container)
    quality = imaging.psnr(img, pipeline.decode_image(session, container))
    stats = {
        "ratios": list(ratios.as_tuple()),
        "theoretical_bpp": granularity.theoretical_bpp(ratios, session.mean_code_len),
        "actual_bpp": total,
        "payload_bpp": payload,
        # as the benchmark defines it: against the model at the plan's ratios
        "rate_gap_bpp": abs(payload - granularity.theoretical_bpp(
            container.ratios, session.mean_code_len)),
        "stream_bits": dict(zip(("map", *granularity.LABEL_NAMES),
                                (container.map_bits, *container.index_bits))),
        "psnr_db": None if quality == imaging.LOSSLESS else quality,
        "lossless": quality == imaging.LOSSLESS,
        "blocks": dict(zip(granularity.LABEL_NAMES, granularity.label_counts(gmap).tolist())),
        "mean_code_length": session.mean_code_len,
    }
    if args.entropy_csv:  # before the report, so a failed write prints only its error
        with open(args.entropy_csv, "w") as f:
            f.write("row,col,entropy\n")
            for (row, col), h in np.ndenumerate(emap):
                f.write(f"{row},{col},{h:.9f}\n")
    _report(stats, args.json)


def cmd_rate_table(args) -> None:
    session = pipeline.CodecSession.from_file(args.codebook)
    table = session.rate_table  # the bpp column --bpp searches, in lattice order
    order = np.argsort(table, kind="stable")  # printed by bpp
    with (open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)) as out:
        out.write("r1,r2,r3,bpp\n")
        for (r1, r2, r3), bpp in zip(granularity.LATTICE[order], table[order]):
            out.write(f"{r1:.6f},{r2:.6f},{r3:.6f},{bpp:.6f}\n")


def cmd_inspect(args) -> None:
    c = bitstream.read_container(args.input)
    total, payload = bitstream.measure_rate(c)
    info = {
        "true_size": [c.true_w, c.true_h],
        "padded_size": [c.padded_w, c.padded_h],
        "codebook_hash": f"{c.codebook_hash:016x}",
        "ratios": list(c.ratios.as_tuple()),
        "index_bits": list(c.index_bits),
        "map_bits": c.map_bits,
        "byte_length": c.byte_length,
        "actual_bpp": total,
        "payload_bpp": payload,
    }
    _report(info, args.json)


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError, so `main` reports it as every other
    error (exit 1), where argparse would print its usage and exit 2. Its
    subcommand parsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="granucodec",
        description="Variable-rate block-granularity VQ image codec")
    sub = parser.add_subparsers(dest="command", required=True)
    # the paper's rate control is an either/or: a ratio triple or a target bpp
    rate = argparse.ArgumentParser(add_help=False)
    group = rate.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratios", type=_parse_ratios, help="r1,r2,r3 (fine,medium,coarse)")
    group.add_argument("--bpp", type=float, help="target bits per pixel")

    p = sub.add_parser("train-codebook", help="k-means codebook + frequency table",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--corpus", required=True, help="directory of .ppm images")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--max-samples", type=int, help="subsample cap for k-means input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_codebook)

    p = sub.add_parser("encode", parents=[rate], help="compress a PPM image")
    p.add_argument("--codebook", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decompress a .cgic container")
    p.add_argument("--codebook", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stats", parents=[rate], help="encode+decode and report rate/quality")
    p.add_argument("--codebook", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--entropy-csv", default=None,
                   help="also dump the entropy map as CSV")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("rate-table", help="dump the ratio->bpp table --bpp searches")
    p.add_argument("--codebook", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rate_table)

    p = sub.add_parser("inspect", help="dump container fields and the map's ratios")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return 0
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # exit writes nowhere, as the Python docs on SIGPIPE advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # the codec's own errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
