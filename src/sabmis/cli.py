"""Command-line surface: keygen, embed, extract, metrics, and the bench
harness that sweeps stego quality over an image corpus.

Exit codes: 0 success, 2 usage or validation error, 3 I/O or format error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time
from pathlib import Path

from .codec import embed_images, extract_images
from .errors import DimensionError, FormatError, ParamError, SolverError
from .measure import StegoParams, derive_assignment, make_key, read_key, write_key
from .metrics import compare, psnr
from .raster import Raster, quantize_u8, read_pgm, read_srf, write_pgm, write_srf

IMAGE_SUFFIXES = (".pgm", ".srf")


def read_image(path) -> Raster:
    """Read PGM or SRF, sniffing the container by its magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:2] == b"P5":
        return read_pgm(path)
    if magic == b"SRF1":
        return read_srf(path)
    raise FormatError(f"{path}: unrecognized container (expected P5 PGM or SRF1)")


def _cmd_keygen(args) -> int:
    b = args.block
    p2 = b * b - args.p1
    params = StegoParams(
        N=args.cover_size, M=args.secret_size, b=b, l=b,
        p1=args.p1, p2=p2, p3=args.p3, m=int(round(args.m_factor * p2)),
        alpha=args.alpha, beta=args.beta, gamma=args.gamma,
        c=args.c, num_secrets=args.num_secrets)
    key = make_key(args.seed, params)
    write_key(key, args.out)
    print(json.dumps({"out": str(args.out), "assignment": list(key.assignment)}))
    return 0


def _cmd_embed(args) -> int:
    if not 1 <= len(args.secret) <= 4:
        raise ParamError(f"between 1 and 4 --secret flags required, got {len(args.secret)}")
    key = read_key(args.key)
    cover = read_image(args.cover)
    secrets = [read_image(s) for s in args.secret]
    stego, report = embed_images(cover, secrets, key)
    write_srf(stego, args.out)
    out = {"out": str(args.out)}
    if args.export_pgm8:
        write_pgm(stego, args.export_pgm8, depth=8)
        out["export_pgm8"] = str(args.export_pgm8)
    out.update(report.to_dict())
    print(json.dumps(out, indent=2))
    return 0


def _cmd_extract(args) -> int:
    key = read_key(args.key)
    stego = read_image(args.stego)
    files = []
    for i, secret in enumerate(extract_images(stego, key), start=1):
        path = f"{args.out_prefix}{i}.pgm"
        write_pgm(secret, path, depth=8)
        files.append(path)
    print(json.dumps({"files": files}))
    return 0


def _cmd_metrics(args) -> int:
    report = compare(read_image(args.ref), read_image(args.test))
    text = report.to_json()
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _list_corpus(directory) -> list[Path]:
    root = Path(directory)
    if not root.is_dir():
        raise ParamError(f"{directory} is not a directory")
    files = sorted(p for p in root.iterdir() if p.suffix.lower() in IMAGE_SUFFIXES)
    if not files:
        raise ParamError(f"no .pgm or .srf images found in {directory}")
    return files


def _load_report(path) -> dict:
    """A fresh report, or the one to resume; any other file is refused, not overwritten."""
    path = Path(path)
    if not path.exists():
        return {"version": 1, "covers": {}, "completed": []}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: cannot resume report: {exc}") from None
    if not (isinstance(data, dict) and data.get("version") == 1
            and isinstance(data.get("covers"), dict)
            and isinstance(data.get("completed"), list)):
        raise FormatError(f"{path}: not a version 1 bench report")
    return data


def _save_report(report: dict, path) -> None:
    tmp = str(path) + ".tmp"
    Path(tmp).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _cmd_bench(args) -> int:
    """Sweep 1..S embedded secrets per cover, averaging PSNR over all
    secret-subset choices and timing each subset's embed, and collect full
    stego/extraction metrics at the maximum secret count. Restart-safe:
    covers the report lists as completed are skipped; a cover that errored
    is recorded but retried on the next run."""
    key = read_key(args.key)
    base = key.params
    cover_files = _list_corpus(args.covers)
    secret_files = _list_corpus(args.secrets)[:4]
    report = _load_report(args.report)
    report["params"] = {"seed": key.seed, **dataclasses.asdict(base)}
    del report["params"]["num_secrets"]  # the sweep runs every count up to it
    secrets = [read_image(f) for f in secret_files]
    nsec = len(secrets)

    # one derived key per secret count; assignments are prefixes of each other
    keys = {}
    for k in range(1, nsec + 1):
        params_k = dataclasses.replace(base, num_secrets=k)
        keys[k] = make_key(key.seed, params_k, derive_assignment(key.seed, k))

    for cover_file in cover_files:
        name = cover_file.stem
        if name in report["completed"]:
            continue
        entry: dict = {"file": str(cover_file)}
        t_start = time.perf_counter()
        try:
            cover = read_image(cover_file)
            cover_q = quantize_u8(cover)
            curve, walls = {}, {}
            for k in range(1, nsec + 1):
                values, times = [], []
                for combo in itertools.combinations(range(nsec), k):
                    chosen = [secrets[i] for i in combo]
                    t_embed = time.perf_counter()
                    stego, rpt = embed_images(cover, chosen, keys[k])
                    times.append(time.perf_counter() - t_embed)
                    values.append(psnr(cover_q, quantize_u8(stego)))
                    if k == nsec:
                        entry["stego_metrics"] = compare(cover, stego).to_dict()
                        entry["solver"] = rpt.to_dict()
                        extracted = extract_images(stego, keys[k])
                        entry["extracted_metrics"] = [
                            compare(orig, ext).to_dict()
                            for orig, ext in zip(chosen, extracted)]
                curve[str(k)] = sum(values) / len(values)
                walls[str(k)] = times
            entry["psnr_curve"] = curve
            entry["subset_wall_s"] = walls
        except (ParamError, DimensionError, FormatError, SolverError, OSError) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entry["wall_clock_s"] = time.perf_counter() - t_start
        report["covers"][name] = entry
        if "error" not in entry:
            report["completed"].append(name)
        _save_report(report, args.report)

    if args.csv:
        lines = ["cover,secrets,psnr_db"]
        for name, entry in sorted(report["covers"].items()):
            for k, value in sorted(entry.get("psnr_curve", {}).items()):
                lines.append(f"{name},{k},{value:.6f}")
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(json.dumps({"report": str(args.report),
                      "covers": len(report["completed"])}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sabmis",
        description="Hide up to four gray-scale images in one cover image and "
                    "extract them again with only the stego image and the key.")
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="write a key file")
    kg.add_argument("--seed", type=int, required=True, help="unsigned 64-bit generator seed")
    kg.add_argument("--out", required=True, help="key file path")
    kg.add_argument("--cover-size", type=int, default=1024, metavar="N")
    kg.add_argument("--secret-size", type=int, default=512, metavar="M")
    kg.add_argument("--block", type=int, default=8, help="block side for cover and secrets")
    kg.add_argument("--p1", type=int, default=32, help="large-coefficient slots per block")
    kg.add_argument("--m-factor", type=float, default=10.0,
                    help="measurement count as a multiple of p2")
    kg.add_argument("--p3", type=int, default=32, help="embedded coefficients per secret block")
    kg.add_argument("--alpha", type=float, default=0.01)
    kg.add_argument("--beta", type=float, default=0.1)
    kg.add_argument("--gamma", type=float, default=1.0)
    kg.add_argument("--c", type=int, default=8, dest="c", help="donor offset (6 or 8 in practice)")
    kg.add_argument("--num-secrets", type=int, default=4)
    kg.set_defaults(func=_cmd_keygen)

    em = sub.add_parser("embed", help="hide secrets in a cover image")
    em.add_argument("--cover", required=True)
    em.add_argument("--secret", action="append", required=True,
                    help="secret image; repeat for up to four")
    em.add_argument("--key", required=True)
    em.add_argument("--out", required=True, help="stego output (SRF float container)")
    em.add_argument("--export-pgm8", help="additionally export an 8-bit PGM view")
    em.set_defaults(func=_cmd_embed)

    ex = sub.add_parser("extract", help="recover secrets from a stego image")
    ex.add_argument("--stego", required=True, help="stego image (SRF or PGM)")
    ex.add_argument("--key", required=True)
    ex.add_argument("--out-prefix", required=True)
    ex.set_defaults(func=_cmd_extract)

    me = sub.add_parser("metrics", help="fidelity report between two images")
    me.add_argument("--ref", required=True)
    me.add_argument("--test", required=True)
    me.add_argument("--json", help="also write the report to this path")
    me.set_defaults(func=_cmd_metrics)

    be = sub.add_parser("bench", help="quality sweep over a corpus")
    be.add_argument("--covers", required=True, help="directory of cover images")
    be.add_argument("--secrets", required=True, help="directory of secret images")
    be.add_argument("--key", required=True)
    be.add_argument("--report", required=True, help="JSON report path (restart-safe)")
    be.add_argument("--csv", help="also write PSNR curves as CSV")
    be.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.func(args)
    except (ParamError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
