"""Source hygiene of the package: every name a module imports is used there,
only raster_io writes, renames or removes a file, a payload is read in
bulk in two places only, only the command line and `threshold_map` check a
threshold, one function starts threads, only rng draws one value at a time,
one function splits the flat weight vector into layers, every dataclass
checks or converts its fields unless listed with a reason, and public API
that src/ never refers to is kept only for a stated reason."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "litterscan"


def imported_names(tree: ast.Module):
    """The names that the import statements of `tree` bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"


# Calls that change files: only raster_io, whose commit stages every output,
# may make them, so no writer can bypass the commit.
OS_FILE_CALLS = {"replace", "rename", "unlink", "remove"}
FILE_METHODS = {"tofile", "write_bytes", "write_text"}


def file_changing_calls(tree: ast.Module):
    """The line of each use in `tree` of os.replace, os.rename, os.unlink,
    os.remove or a `.tofile`, `.write_bytes` or `.write_text` method, called
    or not; of each call to an `open` whose mode has w, x, a or + or is not
    a literal; and of each `open` passed as a value."""
    called = {node.func for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (node.attr in FILE_METHODS or (
                node.attr in OS_FILE_CALLS and isinstance(node.value, ast.Name)
                and node.value.id == "os")):
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "open" and node not in called:
            yield node.lineno
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(
                node.func, "attr", None)) == "open":
            at = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode), path.open(mode)
            mode = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wxa+"):
                yield node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_raster_io_changes_files(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = list(file_changing_calls(tree))
    if path.name == "raster_io.py":
        assert lines, "the checker no longer sees raster_io's own writes"
    else:
        assert not lines, f"{path.name} writes, renames or removes a file at lines {lines}"


# The two bulk payload readers: `raster_io.load_stack` (band payloads,
# with `np.fromfile`) and `resample._read_rows` (the cube's row blocks,
# under `load_cube` and `map_cube_rows`, with `os.preadv`). A third would be
# a cube read that skips the block stream and its check of every value.
PAYLOAD_READERS = {("raster_io.py", "load_stack"), ("resample.py", "_read_rows")}


def top_level_uses(path: Path, names: set[str]):
    """(file name, name of the top-level function or None) of each use of one
    of `names`, as a name or an attribute, called or not, in the module at
    `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if getattr(node, "attr", getattr(node, "id", None)) in names:
                yield path.name, name


def package_uses(names: set[str]):
    return [use for path in sorted(PACKAGE.glob("*.py")) for use in top_level_uses(path, names)]


def test_only_the_two_payload_readers_read_payload_bytes():
    uses = package_uses({"fromfile", "preadv"})
    assert sorted(uses) == sorted(PAYLOAD_READERS), uses


# A threshold is checked where it enters: the command line checks each
# threshold flag before it reads a cube, and `indexes.threshold_map`, the
# whole-map oracle, checks its own argument. A check in a function that maps
# blocks would test again, per block, a fact the command line already holds.
def test_only_the_command_line_and_threshold_map_check_a_threshold():
    uses = set(package_uses({"check_threshold"}))
    outside_cli = {use for use in uses if use[0] != "cli.py"}
    assert outside_cli == {("indexes.py", "threshold_map")} and uses - outside_cli, uses


# The one threading design: `resample._in_order` computes alternate items of
# every block stream on its one helper thread. A thread started anywhere
# else would be a second design beside it.
def test_only_in_order_starts_a_thread():
    uses = package_uses({"ThreadPoolExecutor", "Thread"})
    assert uses == [("resample.py", "_in_order")], uses


# The per-draw methods of `rng.SplitMix64`: the oracle of its bulk draws and
# the step they hand over to. Any other module draws through `uniforms`,
# `normals` or `permutation`, so no second, scalar stream grows beside them.
PER_DRAW_METHODS = {"next_u64", "next_float", "next_below", "uniform", "normal", "shuffle"}


def test_only_rng_draws_one_value_at_a_time():
    files = {path for path, _ in package_uses(PER_DRAW_METHODS)}
    assert files == {"rng.py"}, files


# The flat weight layout is split in one place: `mlp._layers` views the
# 151-weight vector as the (N_HIDDEN, N_FEATURES + 1) hidden matrix and the
# output weights. A second reshape into that matrix would state the layout
# twice.
HIDDEN_SHAPES = (["N_HIDDEN", "N_FEATURES + 1"], ["10", "14"])


def hidden_matrix_reshapes(path: Path):
    """(file name, name of the top-level function or None) of each
    `x.reshape(...)` or `np.reshape(x, ...)` call in the module at `path`
    whose shape is the hidden matrix's, written with mlp's constants, with
    or without a module prefix, or as the numbers 10 and 14."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "reshape"):
                continue
            args = node.args
            if getattr(node.func.value, "id", None) in ("np", "numpy"):
                args = args[1:]  # np.reshape(x, shape)
            if len(args) == 1 and isinstance(args[0], (ast.Tuple, ast.List)):
                args = args[0].elts
            shape = [ast.unparse(a).replace("mlp.", "") for a in args]
            if shape in HIDDEN_SHAPES:
                yield path.name, name


def test_only_layers_reshapes_weights_into_the_hidden_matrix():
    uses = [use for path in sorted(PACKAGE.glob("*.py")) for use in hidden_matrix_reshapes(path)]
    assert uses == [("mlp.py", "_layers")], uses


# A dataclass checks or converts what it holds in its `__post_init__`. One
# that only holds values its callers already know is a pass-through wrapper:
# its callers can pass the values, or the dict that gets written, instead.
# The dataclasses without one are listed here with their reason.
UNCHECKED_DATACLASSES = {
    "resample.CubeHeader": "only read_cube_header makes one, and it checks every field",
}


def dataclasses_without_post_init():
    """"module.Class" of each top-level class in src/ decorated with
    `dataclass`, called or not, that defines no `__post_init__`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(top, ast.ClassDef):
                continue
            decorators = {getattr(d, "id", getattr(d, "attr", None)) for d in (
                d.func if isinstance(d, ast.Call) else d for d in top.decorator_list)}
            methods = {item.name for item in top.body if isinstance(item, ast.FunctionDef)}
            if "dataclass" in decorators and "__post_init__" not in methods:
                yield f"{path.stem}.{top.name}"


def test_every_dataclass_checks_or_converts_its_fields():
    assert sorted(dataclasses_without_post_init()) == sorted(UNCHECKED_DATACLASSES)


# Public API that no code in src/ refers to stays only for a stated reason:
# perfbench/tracing.py times it (its LAYERS), it is one of rng's per-draw
# oracle methods above, or it is listed here with its reason.
KEPT_UNREFERENCED: dict[str, str] = {}
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"


def traced_functions() -> set[str]:
    """The "layer.function" of each function that perfbench/tracing.py's
    LAYERS names, read from its source."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    return {f"{layer}.{name}" for layer, names in layers.items() for name in names}


def public_api():
    """("module.name" or "module.Class.method", name) of each public
    top-level function and class and each public method of a public
    top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                yield f"{path.stem}.{top.name}", top.name
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                for item in top.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{top.name}.{item.name}", item.name


def test_every_public_function_is_referenced_or_kept_for_a_reason():
    """A name counts as referenced when it is used anywhere in src/, as a
    name or as an attribute of anything. A class counts as a function does,
    so a wrapper type that src/ never names fails here too. Attributes are
    matched by name alone, so the API this finds unreferenced is a lower
    bound: a method `take` would pass as long as some code called
    `ndarray.take`."""
    used = {getattr(node, "attr", getattr(node, "id", None))
            for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))}
    kept = traced_functions() | set(KEPT_UNREFERENCED) | {
        f"rng.SplitMix64.{name}" for name in PER_DRAW_METHODS}
    dead = [qual for qual, name in public_api() if name not in used and qual not in kept]
    assert not dead, f"public API that src/ never refers to: {dead}"
