"""Command-line surface: keygen, embed, extract, metrics, and the bench
harness that sweeps stego quality over an image corpus.

Exit codes: 0 success, 2 usage or validation error, 3 I/O or format error,
4 numerical failure. One table, `_EXIT_CODES`, maps each failure kind a
command can raise to its code; `main` prints any of them as one `error:`
line and returns its code, and `bench` records one raised inside a cover as
that cover's error and goes on to the next cover.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .codec import _carrier_rows, _check_side, _stego, _subset_pairs, embed_images, extract_images
from .errors import DimensionError, FormatError, ParamError, SolverError
from .measure import StegoParams, make_key, read_key, write_key
from .metrics import _psnr_of_sse, _report_constant, _report_value, _sse, compare
from .raster import Raster, _levels, read_pgm, read_srf, write_pgm, write_srf

IMAGE_SUFFIXES = (".pgm", ".srf")
# every failure kind a command can raise, and the exit code it maps to
_EXIT_CODES = {ParamError: 2, DimensionError: 2, FormatError: 3, OSError: 3, SolverError: 4}


def read_image(path) -> Raster:
    """Read PGM or SRF, sniffing the container by its magic bytes. An image
    holding a NaN or infinite sample is refused as a numerical failure."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic[:2] == b"P5":
        image = read_pgm(path)
    elif magic == b"SRF1":
        image = read_srf(path)
    else:
        raise FormatError(f"{path}: unrecognized container (expected P5 PGM or SRF1)")
    if not np.isfinite(image.pixels).all():
        raise SolverError(f"{path}: image holds non-finite samples")
    return image


def _cmd_keygen(args) -> int:
    if not math.isfinite(args.m_factor):
        raise ParamError(f"--m-factor must be finite, got {args.m_factor!r}")
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
    # a finite stego whose samples are near the float limit can overflow the
    # extraction's product; every secret is checked before any is written
    with np.errstate(over="ignore", invalid="ignore"):
        secrets = extract_images(stego, key)
    if not all(np.isfinite(secret.pixels).all() for secret in secrets):
        raise SolverError(f"{args.stego}: extraction overflows to non-finite samples")
    files = []
    for i, secret in enumerate(secrets, start=1):
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


def _load_report(path, params: dict) -> dict:
    """A fresh report under `params`, or the one to resume under them; any
    other file, a report made under another key or recording none included,
    is refused, not overwritten."""
    path = Path(path)
    if not path.exists():
        return {"version": 1, "covers": {}, "completed": [], "params": params}
    try:
        data = json.loads(path.read_text(encoding="utf-8"), parse_constant=_report_constant)
    except ValueError as exc:
        raise FormatError(f"{path}: cannot resume report: {exc}") from None
    if not (isinstance(data, dict) and data.get("version") == 1
            and isinstance(data.get("covers"), dict)
            and isinstance(data.get("completed"), list)):
        raise FormatError(f"{path}: not a version 1 bench report")
    if "params" not in data:
        raise FormatError(f"{path}: cannot resume a bench report that records no key")
    if data["params"] != params:
        raise FormatError(f"{path}: cannot resume a bench report made under another key "
                          f"(report has {data['params']})")
    return data


def _save_report(report: dict, path) -> None:
    tmp = str(path) + ".tmp"
    Path(tmp).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _cmd_bench(args) -> int:
    """Sweep 1..S embedded secrets per cover, averaging PSNR over all
    secret-subset choices, and collect full stego/extraction metrics at the
    maximum secret count.

    A subset's PSNR comes from the sum of its pairs' integer SSEs against
    the 8-bit cover (`_subset_pairs`), each pair scored once per cover; the
    sums are exact, so each PSNR equals `psnr` on the 8-bit cover and stego.
    Only the full-count subset builds a stego, which feeds the metrics, the
    solver figures and the extraction. Each secret is checked once, before
    the first cover: one whose size does not match the key, or whose 8-bit
    view is all zero (NCC against it is undefined), would fail every cover.

    Restart-safe: covers the report lists as completed are skipped; a cover
    that errored is recorded but retried on the next run. A report made
    under another key's seed or parameters, or recording none, is refused,
    not mixed with this key's covers. The report keys covers by file stem,
    so a cover directory holding two covers of one stem is refused before
    the report is read."""
    key = read_key(args.key)
    cover_files: dict[str, Path] = {}
    for cover_file in _list_corpus(args.covers):
        other = cover_files.setdefault(cover_file.stem, cover_file)
        if other != cover_file:
            raise ParamError(f"covers {other} and {cover_file} share the stem "
                             f"{cover_file.stem!r}: a bench report keys covers by file stem")
    secret_files = _list_corpus(args.secrets)[:4]
    params = {"seed": key.seed, **dataclasses.asdict(key.params)}
    del params["num_secrets"]  # the sweep runs every count up to it
    report = _load_report(args.report, params)
    secrets = [read_image(f) for f in secret_files]
    for secret_file, secret in zip(secret_files, secrets):
        _check_side(secret, key.params.M, f"{secret_file}: secret")
        # levels rise with the samples, so the 8-bit view is all zero
        # exactly when the largest sample's level is
        if not _levels(secret.pixels.max(keepdims=True)).any():
            raise ParamError(f"{secret_file}: NCC is undefined for an all-zero 8-bit secret")

    for name, cover_file in cover_files.items():
        if name in report["completed"]:
            continue
        entry: dict = {"file": str(cover_file)}
        t_start = time.perf_counter()
        try:
            cover = read_image(cover_file)
            cover_q = _levels(cover.pixels)
            sse = {}  # (sub-image, secret index) -> SSE of its 8-bit blocks
            values = {}
            for combo, key_k, pairs, rpt in _subset_pairs(cover, secrets, key):
                total = 0.0
                for (k, i), rows in pairs.items():
                    if (k, i) not in sse:
                        sse[k, i] = _sse(_levels(rows), _carrier_rows(cover_q, k, key.params))
                    total += sse[k, i]
                values.setdefault(str(len(combo)), []).append(_psnr_of_sse(total, cover_q.size))
                if len(combo) == len(secrets):
                    stego = _stego(cover, key.params, pairs)
                    entry["stego_metrics"] = compare(cover, stego).to_dict()
                    entry["solver"] = rpt.to_dict()
                    extracted = extract_images(stego, key_k)
                    entry["extracted_metrics"] = [
                        compare(orig, ext).to_dict()
                        for orig, ext in zip(secrets, extracted)]
            entry["psnr_curve"] = {k: _report_value(sum(v) / len(v)) for k, v in values.items()}
        except tuple(_EXIT_CODES) as exc:
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
                lines.append(f"{name},{k},{float(value):.6f}")
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
    ref = StegoParams()  # the reference configuration, with b = l
    kg.add_argument("--cover-size", type=int, default=ref.N, metavar="N")
    kg.add_argument("--secret-size", type=int, default=ref.M, metavar="M")
    kg.add_argument("--block", type=int, default=ref.b, help="block side for cover and secrets")
    kg.add_argument("--p1", type=int, default=ref.p1, help="large-coefficient slots per block")
    kg.add_argument("--m-factor", type=float, default=ref.m / ref.p2,
                    help="measurement count as a multiple of p2")
    kg.add_argument("--p3", type=int, default=ref.p3, help="embedded coefficients per secret block")
    kg.add_argument("--alpha", type=float, default=ref.alpha)
    kg.add_argument("--beta", type=float, default=ref.beta)
    kg.add_argument("--gamma", type=float, default=ref.gamma)
    kg.add_argument("--c", type=int, default=ref.c, dest="c", help="donor offset (6 or 8 in practice)")
    kg.add_argument("--num-secrets", type=int, default=ref.num_secrets)
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
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
