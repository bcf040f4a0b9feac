"""Where the program under test lives, and the environment a result was taken in."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "sabmis"

# One BLAS thread: the process then runs on at most one core of the machine
# for BLAS work, which keeps shared-machine timings steady. Set before numpy
# is imported, and inherited by every helper process.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class CheckoutError(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Make `import sabmis` load this checkout's sources and nothing else."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise CheckoutError(f"no sabmis sources at {PACKAGE_DIR}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sabmis
    if Path(sabmis.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise CheckoutError(f"imported sabmis from {sabmis.__file__}, not from {PACKAGE_DIR}")


def source_digest() -> str:
    """sha256 over the package sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def environment() -> dict:
    """Machine, library and code versions; call after numpy has been imported."""
    import numpy
    import scipy
    try:
        import threadpoolctl
        pools = threadpoolctl.threadpool_info()
    except ImportError:
        pools = "threadpoolctl not installed"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREADS},
        "threadpools": pools,
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
    }
