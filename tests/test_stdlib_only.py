"""The runtime is stdlib-only: every module of src/corelat imports only the
standard library and corelat itself, and parses as the oldest Python that
pyproject.toml's requires-python admits.  Its classes cache attributes with
linalg.memo, not with functools.cached_property, which takes a lock.  Every
private name it defines is used in src, only param.LayerMap tests what
kind of map a phi is, generated source runs only in linalg._define, and
only atomic.DominantWeight turns a weight into the statistic's rows."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "corelat"
ALLOWED = sys.stdlib_module_names | {"corelat"}
# (3, 10) from requires-python = ">=3.10"
FLOOR = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                                 (SRC.parent.parent / "pyproject.toml").read_text(),
                                 re.MULTILINE).groups()))


def test_runtime_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        # feature_version refuses syntax newer than the floor, e.g. except* below 3.11
        for node in ast.walk(ast.parse(path.read_text(), str(path), feature_version=FLOOR)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []


def test_generated_maps_parse_at_the_floor():
    # linalg.compile_affine runs source the module check above never reads;
    # parse a sample of it at the floor, and check that it calls nothing
    from corelat import atomic, linalg, param

    forms = [atomic.length_form(t, 0, "M") for t in ("A1_1", "C2_1", "E8_1")]
    maps = [*param.get_case("A2ext").layer_maps, *param.get_case("A3").layer_maps,
            param.hyp_case("C4_1").image_map]
    samples = ([(form.C, (0,) * len(form.C)) for form in forms] + [(f.P, f.p) for f in maps]
               + [((), ()), (((0, 0),), (-7,)), (((1, -1, 0, 12),), (0,))])
    # the all-layers functions add one tuple per block (ParamCase.layers_map)
    stacked = [(sum((f.P for f in maps), ()), sum((f.p for f in maps), ()), [len(f.p) for f in maps])
               for maps in (param.get_case(c).layer_maps for c in ("A2ext", "A3", "HYP:C4_1"))]
    for P, p, *blocks in samples + stacked + [((), (), [0, 0])]:
        tree = ast.parse(linalg.affine_source(P, p, *blocks), feature_version=FLOOR)
        assert not any(isinstance(node, ast.Call) for node in ast.walk(tree))
    # linalg.compile_level too: one function per depth above 1, calling only
    # isqrt, divmod, range, the list's append and the next depth down
    for type_id, rank in (("A1_1", 1), ("C2_1", 2), ("E8_1", 8), ("A21_1", 21), ("A50_1", 50)):
        ball = atomic.length_form(type_id, 0, "M").ball
        assert len(ball.e) == rank
        tree = ast.parse(linalg.level_source(ball.S, ball.e, ball.Su, ball.c0, ball.scale,
                                             ball.offset), feature_version=FLOOR)
        depths = {f"d{i}" for i in range(2, rank)}
        assert {node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)} == {"level"} | depths
        assert {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)} <= (
            {"isqrt", "divmod", "range", "append"} | depths)
    # linalg.kernel_source and membership_source too: one factory per shape
    # (ambient_dim, span equations), calling only what reads a point and,
    # for a statistic, builds the quotient
    for n, e in ((1, 0), (2, 0), (2, 1), (3, 1), (8, 0), (8, 2), (50, 0), (51, 1)):
        for source, allowed in ((linalg.kernel_source, {"Fraction"}), (linalg.membership_source, set())):
            tree = ast.parse(source(n, e), feature_version=FLOOR)
            calls = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                     for node in ast.walk(tree) if isinstance(node, ast.Call)}
            assert calls <= {"getattr", "as_integer_ratio", "lcm", "slow"} | allowed


def test_only_linalg_define_runs_generated_source():
    # every compiled function (affine maps, level searches, statistic
    # kernels) is built by linalg._define, the one place exec runs
    inside, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        define = {id(node) for func in ast.walk(tree) if path.stem == "linalg"
                  and isinstance(func, ast.FunctionDef) and func.name == "_define"
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                (inside if id(node) in define else outside).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 1 and outside == []


def test_no_module_uses_functools_cached_property():
    used = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                used += [f"{path.name}:{node.lineno}" for alias in node.names
                         if alias.name == "cached_property"]
            elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
                used.append(f"{path.name}:{node.lineno}")
    assert used == []


def test_only_layer_map_tests_the_kind_of_a_map():
    # LayerMap decides once how its layer is applied (apply, numerators,
    # keeps_quadric); no other code tests a phi for AffineMap, and none
    # tests for a LayerMap or reads keeps_quadric with a default
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "LayerMap" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "getattr") and len(node.args) >= 2):
                continue
            arg = node.args[1]
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(arg)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if node.func.id == "getattr":
                tested = isinstance(arg, ast.Constant) and arg.value == "keeps_quadric"
            else:
                tested = "LayerMap" in names or ("AffineMap" in names and id(node) not in inside)
            if tested:
                found.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert found == []


def test_only_a_dominant_weight_derives_the_rows():
    # atomic._rows, the statistic's integer rows (W, K, M) at a weight, is
    # called once, in DominantWeight; the kernels and length_form read the
    # weight's rows
    inside, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        weight = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "DominantWeight"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_rows" in (getattr(node.func, "id", None),
                                                        getattr(node.func, "attr", None)):
                (inside if id(node) in weight else outside).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 1 and outside == []


def test_a_memo_is_computed_once(monkeypatch):
    from corelat import param

    calls = []

    def counted(*args):
        calls.append(args)
        return solve_diagonal(*args)

    solve_diagonal = param.solve_diagonal
    monkeypatch.setattr(param, "solve_diagonal", counted)
    level = param.LevelData(param.get_case("A2"), 6)
    assert level.reps is level.reps and level.reps
    assert calls == [((1, 3), level.k, "C6")]


def _private_definitions(tree):
    """(name, node) for each _-prefixed def or class, at any depth, and each
    _-prefixed name assigned at module or class level; dunders are not private."""
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assigned = [(target, node) for scope in scopes for node in scope.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    found = [(node.name, node) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    found += [(name.id, node) for target, node in assigned for name in ast.walk(target)
              if isinstance(name, ast.Name)]
    return [(name, node) for name, node in found
            if name.startswith("_") and not name.endswith("__")]


def _loads(node):
    """How often node loads each bare name, and reads each attribute (as ".name")."""
    return Counter(n.id if isinstance(n, ast.Name) else "." + n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)))


def test_every_private_name_is_used_in_src():
    # a helper whose last caller was deleted fails here; one that only the
    # tests call belongs in tests/oracles.py.  A def's own body (recursion)
    # and an assignment's own value are no use; another module uses the
    # name as an attribute, or bare once it imports the name from here.
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    loads = {stem: _loads(tree) for stem, tree in trees.items()}
    imports = {stem: {(node.module.rpartition(".")[2], alias.name) for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module for alias in node.names}
               for stem, tree in trees.items()}
    unused = []
    for stem, tree in trees.items():
        for name, node in _private_definitions(tree):
            here = loads[stem] - _loads(node)
            uses = here[name] + here["." + name] + sum(
                refs["." + name] + refs[name] * ((stem, name) in imports[other])
                for other, refs in loads.items() if other != stem)
            if uses == 0:
                unused.append(f"{stem}.py:{node.lineno} {name}")
    assert unused == []
