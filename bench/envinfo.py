"""Environment record attached to every benchmark result.

Two results are comparable only when their environment records agree: the
BLAS thread count changes both the solver's speed and its iterates.
"""

import ctypes
import glob
import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def openblas_threads():
    """Thread count of numpy's bundled scipy-openblas, read through ctypes."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        return int(get())
    return None


def git_commit(root):
    """Commit of a git checkout at ``root``, read from its files; None elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(root):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": git_commit(root),
    }

