"""Spans around the public functions of every regseq layer, from outside.

``Tracer`` wraps each public module-level function of a layer module in
every ``regseq`` namespace that binds it (``decide.solve_full`` is the same
function as ``equations.solve_full`` and gets the same wrapper), plus
``MannMonoid.enumerate`` and ``MannMonoid.contains``.  ``SequenceHandle.eval``
is left alone: it runs once per term read and would dominate the overhead.

Spans are kept in flat arrays (name, start, end, parent, question id) while
the run lasts and written out once at the end.  Wrappers are installed and
removed as a group, so one process can alternate traced and untraced passes
over the same questions.
"""

import importlib
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("sequences", "polyops", "operators", "equations", "congruence",
          "formulas", "decide", "syndetic", "mann", "cli")
# Namespaces that bind layer functions without being layers themselves.
_OTHER_MODULES = ("certs", "jsonio")
_METHODS = (("mann", "MannMonoid", "enumerate"),
            ("mann", "MannMonoid", "contains"))
_COLUMNS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "q"),
            ("question", "q"))


class Tracer:
    def __init__(self):
        self.names = []
        self.columns = {key: array(code) for key, code in _COLUMNS}
        self.question = -1
        self._stack = []
        self._patches = []
        self._discover()

    def _discover(self):
        package = importlib.import_module("regseq")
        modules = {m: importlib.import_module("regseq." + m)
                   for m in LAYERS + _OTHER_MODULES}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in sorted(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer + "." + attr, obj))
        for mod in [package] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))
        for layer, cls_name, attr in _METHODS:
            cls = getattr(modules[layer], cls_name)
            orig = cls.__dict__[attr]
            self._patches.append(
                (cls, attr, orig,
                 self._wrap("%s.%s.%s" % (layer, cls_name, attr), orig)))

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        cols = self.columns
        names_col, start_col, end_col = cols["name"], cols["start"], cols["end"]
        parent_col, question_col = cols["parent"], cols["question"]
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            span = len(names_col)
            names_col.append(index)
            parent_col.append(stack[-1] if stack else -1)
            question_col.append(tracer.question)
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[span] = perf_counter()
                start_col[span] = start
                stack.pop()

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, _orig, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def remove(self):
        for owner, attr, orig, _wrapped in self._patches:
            setattr(owner, attr, orig)

    def span_count(self):
        return len(self.columns["name"])

    def dump(self, path):
        write_spans(path, self.names, self.columns)


def write_spans(path, names, columns):
    """One JSON header line, then each column's raw machine-order array in
    header order."""
    header = {"names": names, "count": len(columns["name"]),
              "columns": [[key, code] for key, code in _COLUMNS]}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for key, _code in _COLUMNS:
            columns[key].tofile(fh)


def merge_spans(files):
    """Concatenate span files written by processes that wrapped the same
    functions; each file's spans get its position in ``files`` as question
    id.  Returns (names, columns)."""
    names = None
    merged = {key: array(code) for key, code in _COLUMNS}
    for question, path in enumerate(files):
        file_names, cols = load_spans(path)
        if names is None:
            names = file_names
        elif file_names != names:
            raise ValueError("span files wrap different functions")
        base = len(merged["name"])
        merged["name"].extend(cols["name"])
        merged["start"].extend(cols["start"])
        merged["end"].extend(cols["end"])
        merged["parent"].extend(p + base if p >= 0 else -1 for p in cols["parent"])
        merged["question"].extend([question] * len(cols["name"]))
    return names or [], merged


def load_spans(path):
    """Read a file written by ``Tracer.dump``: (names, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for key, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            columns[key] = col
    return header["names"], columns


def layer_times(names, columns, functions=()):
    """Per layer: calls, busy seconds (outermost spans of the layer only) and
    self seconds (time in which the innermost open span is in the layer).
    For each name in ``functions``: calls, and busy seconds of its outermost
    spans."""
    layer_ids = [LAYERS.index(n.split(".")[0]) for n in names]
    fn_bits = [0] * len(names)
    for k, fn in enumerate(functions):
        fn_bits[names.index(fn)] = 1 << (len(LAYERS) + k)
    bits = [(1 << layer_ids[n]) | fn_bits[n] for n in range(len(names))]
    name_col, start_col, end_col = columns["name"], columns["start"], columns["end"]
    parent_col = columns["parent"]
    calls = [0] * len(names)
    busy = [0.0] * len(names)
    layer_busy = [0.0] * len(LAYERS)
    self_time = [0.0] * len(LAYERS)
    open_above = []              # bits of the layers/functions open above
    for i in range(len(name_col)):
        name = name_col[i]
        layer = layer_ids[name]
        parent = parent_col[i]
        duration = end_col[i] - start_col[i]
        if parent >= 0:
            above = open_above[parent] | bits[name_col[parent]]
            self_time[layer_ids[name_col[parent]]] -= duration
        else:
            above = 0
        open_above.append(above)
        calls[name] += 1
        self_time[layer] += duration
        if not above & (1 << layer):
            layer_busy[layer] += duration
        if not above & fn_bits[name]:
            busy[name] += duration
    per_layer = {}
    for k, layer in enumerate(LAYERS):
        per_layer[layer] = {
            "calls": sum(c for n, c in enumerate(calls) if layer_ids[n] == k),
            "busy_s": layer_busy[k], "self_s": self_time[k]}
    per_function = {fn: {"calls": calls[names.index(fn)],
                         "busy_s": busy[names.index(fn)]}
                    for fn in functions}
    return per_layer, per_function
