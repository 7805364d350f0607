"""In-memory span tracer installed from outside the program.

The tracer wraps every public function of the spreadopt modules (the names
in each module's ``__all__`` that are plain functions defined there) and
rebinds the wrapper in every module namespace that bound the original, so
that ``decompose`` is traced whether it is reached through ``spectral``,
``interference``, ``optimizer`` or ``cli``.  A span records the function
name, start and end (``perf_counter_ns``), the enclosing span on the same
thread and whether the call raised.  Spans stay in memory until the
benchmark writes them out; self time is a span's duration minus the
durations of its direct children.
"""

import csv
import functools
import inspect
import threading
import time

MODULES = ("cli", "optimizer", "spectral", "interference", "metrics", "simulator", "sequences")

# span record layout: [name, start_ns, end_ns, parent record or None, raised, info]
NAME, START, END, PARENT, RAISED, INFO = range(6)


def _modules():
    import importlib

    package = importlib.import_module("spreadopt")
    return package, {m: importlib.import_module(f"spreadopt.{m}") for m in MODULES}


def public_functions():
    """(short name, function) for every public function, keyed by defining module."""
    _, mods = _modules()
    out = []
    for short, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{short}.{attr}", obj))
    return out


def clear_caches():
    """Empty every functools cache held by a spreadopt module-level function."""
    _, mods = _modules()
    for mod in mods.values():
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and getattr(obj, "__module__", None) == mod.__name__:
                clear()


class Tracer:
    """Records one span per call into a public spreadopt function.

    ``hooks`` maps a traced name to a function of the call's return value
    whose result is kept on the span (for example a solver's iteration count).
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans = []
        self._local = threading.local()
        self._bindings = None

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        hook = self.hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            rec = [name, clock(), 0, stack[-1] if stack else None, False, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                rec[INFO] = hook(result)
            return result

        return traced

    def install(self):
        if self._bindings is None:
            package, mods = _modules()
            namespaces = [package, *mods.values()]
            self._bindings = []
            for name, fn in public_functions():
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for attr, value in vars(ns).items():
                        if value is fn:
                            self._bindings.append((ns, attr, fn, wrapper))
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)
        return self

    def uninstall(self):
        for ns, attr, fn, _ in self._bindings or ():
            setattr(ns, attr, fn)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def take(self):
        """Return the spans recorded so far and start a new segment."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def durations_ns(spans):
    return {id(s): s[END] - s[START] for s in spans}


def self_times_ns(spans):
    """Self time of each span: its duration minus its direct children's."""
    dur = durations_ns(spans)
    child = {}
    for s in spans:
        parent = s[PARENT]
        if parent is not None:
            child[id(parent)] = child.get(id(parent), 0) + dur[id(s)]
    return {k: v - child.get(k, 0) for k, v in dur.items()}


def roots(spans):
    """Map each span to the outermost span enclosing it (parents precede children)."""
    root = {}
    for s in spans:
        parent = s[PARENT]
        root[id(s)] = s if parent is None else root.get(id(parent), parent)
    return root


def write_spans(path, segments):
    """Write ``{segment name: spans}`` as one CSV with per-file span ids."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["segment", "id", "name", "start_ns", "end_ns", "parent_id", "raised"])
        next_id = 0
        ids = {}
        for segment, spans in segments.items():
            for s in spans:
                ids[id(s)] = next_id
                parent = s[PARENT]
                writer.writerow([
                    segment, next_id, s[NAME], s[START], s[END],
                    "" if parent is None else ids.get(id(parent), ""), int(s[RAISED]),
                ])
                next_id += 1
