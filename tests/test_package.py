"""The package surface: names resolved on first use, private names kept
private, lean start-up, and the value types' equality, hashing,
immutability and repr."""

import ast
import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logogram
from logogram import BINARY, Alphabet, Antichain, Budget, CnfShape, PartialString, sat_problem

SRC = Path(__file__).resolve().parent.parent / "src"
ANALYSIS_LAYERS = {"logogram.engine", "logogram.problems", "logogram.tracer",
                   "logogram.wizardry"}


class TestLazySurface:
    def test_public_names_are_their_home_objects(self):
        for name in logogram.__all__:
            value = getattr(logogram, name)
            home = getattr(value, "__module__", "logogram.strings")  # BLANK is a str
            assert home.startswith("logogram."), name
            assert getattr(sys.modules[home], name) is value, name

    def test_dir_lists_every_public_name(self):
        assert set(logogram.__all__) <= set(dir(logogram))

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            logogram.no_such_name

    def test_submodule_loads_as_an_attribute_before_any_import(self):
        # in this process every submodule is already imported, so a fresh one runs it
        loaded = modules_after("import logogram\n"
                               "assert logogram.tracer is sys.modules['logogram.tracer']")
        assert "logogram.tracer" in loaded


# public names that no module of the package and no benchmark script calls:
# the paper's definitions, through which the tests check its laws
PAPER_DEFINITIONS = {
    "closure_ab_contains", "closure_ba", "formula_word", "gamma", "in_logogram",
    "is_closed", "isoexpansive", "justified", "witness_union_complete"}
# public methods, properties and classmethods that no module and no
# benchmark script calls: a lattice law of the paper's strings, which the
# acceptance criteria check, and the hook argparse calls
UNCALLED_METHODS = {"compatible", "print_help"}


def called_names() -> set[str]:
    """Every name that a module of the package but ``__init__``, or a
    benchmark script, reads, calls or imports."""
    scripts = [path for path in (SRC / "logogram").glob("*.py") if path.name != "__init__.py"]
    scripts += (SRC.parent / "bench").glob("*.py")
    referenced = set()
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name)
    return referenced


class TestOneNamePerJob:
    """A public name or method that only tests call repeats a route the
    package already has: delete it rather than keep two names for one job."""

    def test_every_other_public_name_has_a_caller(self):
        assert PAPER_DEFINITIONS <= set(logogram.__all__)
        assert PAPER_DEFINITIONS.isdisjoint(called_names())
        assert set(logogram.__all__) - called_names() - PAPER_DEFINITIONS == set()

    def test_every_other_public_method_has_a_caller(self):
        methods = {node.name for path in (SRC / "logogram").glob("*.py")
                   for cls in ast.walk(ast.parse(path.read_text(), str(path)))
                   if isinstance(cls, ast.ClassDef)
                   for node in cls.body
                   if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        assert UNCALLED_METHODS <= methods
        assert methods - called_names() - UNCALLED_METHODS == set()


def other_modules():
    """(name, syntax tree) of each package module but ``universe``."""
    for path in (SRC / "logogram").glob("*.py"):
        if path.name != "universe.py":
            yield path.name, ast.parse(path.read_text(), str(path))


class TestOneOwnerForTheWordLayout:
    def test_only_universe_decodes_packed_words(self):
        # how words pack into ints and word sets into masks is universe's
        # decision: the other layers call its primitives (letters_of,
        # cofactors, restrict, complement, stray, forced_row, count, lowest)
        # and never read E, a position mask or a bit count themselves
        layout = {"_word_weights", "bit_length", "letter_index",
                  "_position_masks", "e_mask", "bit_count"}
        for name, tree in other_modules():
            used = {getattr(node, "attr", getattr(node, "id", None))
                    for node in ast.walk(tree)} & layout
            assert not used, f"{name} uses {sorted(used)}"

    def test_only_universe_isolates_a_lowest_bit(self):
        # x & -x is the lowest word of a mask: universe's lowest()
        for name, tree in other_modules():
            for node in ast.walk(tree):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                        and isinstance(node.right, ast.UnaryOp)
                        and isinstance(node.right.op, ast.USub)):
                    assert ast.dump(node.left) != ast.dump(node.right.operand), \
                        f"{name}:{node.lineno} takes a lowest bit"


class TestOneOwnerForTheClauseEncoding:
    def test_only_problems_reads_the_clause_encoding(self):
        # CnfShape says which slot and code an assignment makes true: the
        # other modules read its tables and never count variables or
        # clauses, and the solvers spell no literal code
        for path in (SRC / "logogram").glob("*.py"):
            if path.name == "problems.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                name = getattr(node, "attr", getattr(node, "id", getattr(node, "arg", None)))
                assert name not in ("var_count", "clause_count"), \
                    f"{path.name}:{node.lineno} names {name}"
                if path.name == "tracer.py" and isinstance(node, ast.Constant):
                    assert node.value not in ("1", "2"), \
                        f"tracer.py:{node.lineno} spells the code {node.value!r}"

    def test_only_cnf_shape_spells_a_literal_code(self):
        # within problems, CnfShape alone maps a literal's polarity to its code
        tree = ast.parse((SRC / "logogram" / "problems.py").read_text())
        shape = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "CnfShape")
        inside = {id(node) for node in ast.walk(shape)}
        outside = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                   and node.value in ("1", "2") and id(node) not in inside]
        assert not outside, f"problems.py spells a literal code on lines {outside}"


class TestPrivateNamesStayPrivate:
    def test_no_module_imports_a_private_name(self):
        # a name another module needs is public, in one home
        for path in (SRC / "logogram").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and node.level:
                    private = [a.name for a in node.names if a.name.startswith("_")]
                    assert not private, f"{path.name}:{node.lineno} imports {private}"


class TestNothingNeedsTheCollectorAtExit:
    def test_no_module_defines_a_finalizer_or_exit_hook(self):
        # the process entry freezes the heap before exit, so a finalizer
        # (__del__, a weakref callback) on an object left in a cycle would
        # stop running at exit; the package has none, nor an atexit hook
        for path in (SRC / "logogram").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.FunctionDef):
                    assert node.name != "__del__", f"{path.name}:{node.lineno} defines __del__"
                if isinstance(node, ast.Import):
                    modules = {a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = {node.module.split(".")[0]}
                else:
                    continue
                assert not modules & {"weakref", "atexit"}, \
                    f"{path.name}:{node.lineno} imports {sorted(modules)}"


def modules_after(code: str) -> set[str]:
    """The modules loaded by ``code`` in a fresh interpreter without site
    packages, with the checkout's ``src`` first on the path."""
    script = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
              "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def cli_modules(*argv: str) -> set[str]:
    return modules_after(f"from logogram.cli import main\nmain({list(argv)!r})")


class TestLeanStartup:
    def test_help_loads_no_analysis_layer(self):
        # every process compiles what it imports when bytecode is not written
        loaded = {m for m in cli_modules("--help") if m.split(".")[0] == "logogram"}
        assert loaded <= {"logogram", "logogram.cli", "logogram.budget", "logogram.values"}

    def test_logogram_loads_neither_tracer_nor_wizardry(self):
        loaded = cli_modules("logogram", "sat", "2", "2")
        assert "logogram.engine" in loaded
        assert not loaded & {"logogram.tracer", "logogram.wizardry"}

    def test_kernel_loads_tracer_but_not_wizardry(self):
        loaded = cli_modules("kernel", "sat", "1", "1")
        assert "logogram.tracer" in loaded
        assert "logogram.wizardry" not in loaded

    def test_kernel_loads_tempfile_only_for_a_dump(self):
        assert "tempfile" not in cli_modules("kernel", "sat", "1", "1")
        assert "tempfile" in cli_modules("kernel", "sat", "1", "1", "--dump-traces", os.devnull)

    def test_public_names_need_no_dataclasses(self):
        loaded = modules_after(
            "import logogram\nfor name in logogram.__all__:\n    getattr(logogram, name)")
        assert ANALYSIS_LAYERS <= loaded
        assert "dataclasses" not in loaded


# (make a value, make an equal one, make a different one, field, repr)
VALUES = [
    (lambda: PartialString(((3, "2"), (1, "1"))), lambda: PartialString({1: "1", 3: "2"}),
     lambda: PartialString(((1, "1"),)), "pairs", "PartialString('1_2')"),
    (lambda: BINARY, lambda: Alphabet("01"), lambda: Alphabet(("1", "0")),
     "letters", "Alphabet(letters=('0', '1'))"),
    (lambda: CnfShape(2, 3), lambda: CnfShape(var_count=2, clause_count=3),
     lambda: CnfShape(3, 2), "var_count", "CnfShape(var_count=2, clause_count=3)"),
    (lambda: Budget(10, 2.5), lambda: Budget(max_strings=10, max_seconds=2.5),
     lambda: Budget(10), "max_seconds", "Budget(max_strings=10, max_seconds=2.5)"),
    (lambda: Antichain((((1, 1),), ((2, 0),)), BINARY),
     lambda: Antichain.of([PartialString.parse("_0", BINARY), PartialString.parse("1", BINARY)],
                          Alphabet("01")),
     lambda: Antichain((((1, 1),),), BINARY), "pairs",
     "Antichain(pairs=(((1, 1),), ((2, 0),)), alphabet=Alphabet(letters=('0', '1')))"),
]

VALUE_METHODS = {"__eq__", "__hash__", "__setattr__", "__delattr__", "__reduce__"}


class TestValueTypes:
    @pytest.mark.parametrize("make, make_equal, make_other, field, text", VALUES)
    def test_equality_hashing_and_repr(self, make, make_equal, make_other, field, text):
        value, equal, other = make(), make_equal(), make_other()
        assert value == equal and hash(value) == hash(equal)
        assert len({value, equal, other}) == 2
        assert value != other
        assert value != getattr(value, field)  # no equality with a bare field
        assert repr(value) == text

    @pytest.mark.parametrize("make, make_equal, make_other, field, text", VALUES)
    def test_fields_are_read_only(self, make, make_equal, make_other, field, text):
        value = make()
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) == before

    def test_only_value_writes_value_methods(self):
        # equality, hashing, read-only fields and pickling come from one base
        for path in (SRC / "logogram").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ClassDef) and node.name != "Value":
                    defined = {t.id for n in node.body if isinstance(n, ast.Assign)
                               for t in n.targets if isinstance(t, ast.Name)}
                    defined |= {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                    assert not defined & VALUE_METHODS, \
                        f"{path.name}: {node.name} defines {sorted(defined & VALUE_METHODS)}"

    def test_antichain_copies_and_pickles_whole(self):
        # a record that iterates its elements must still copy both fields
        chain = sat_problem(2, 1).logogram()
        for twin in (copy.copy(chain), copy.deepcopy(chain),
                     pickle.loads(pickle.dumps(chain))):
            assert twin == chain
            assert (twin.pairs, twin.alphabet) == (chain.pairs, chain.alphabet)
            assert twin.elements == chain.elements

    def test_antichain_equality_reads_pairs_and_alphabet(self):
        chain = sat_problem(2, 1).logogram()
        assert chain == Antichain(chain.pairs, Alphabet("012"))
        assert hash(chain) == hash(Antichain(chain.pairs, Alphabet("012")))
        assert chain != Antichain(chain.pairs, Alphabet("021"))
        assert chain != Antichain(chain.pairs[1:], chain.alphabet)

    @pytest.mark.parametrize("build, message", [
        (lambda: PartialString(((0, "1"),)), "positions must be integers >= 1"),
        (lambda: PartialString(((True, "1"),)), "positions must be integers >= 1"),
        (lambda: PartialString((("a", "1"), (1, "1"))), "positions must be integers >= 1"),
        (lambda: PartialString(((1, "1"), (1, "2"))), "duplicate position"),
        (lambda: PartialString(((1, "12"),)), "single characters"),
        (lambda: Alphabet(()), "nonempty"),
        (lambda: Alphabet(("0", "0")), "distinct"),
        (lambda: Alphabet(("0", "_")), "reserved"),
        (lambda: CnfShape(0, 1), "must be >= 1"),
        (lambda: CnfShape(1, 0), "must be >= 1"),
        (lambda: Budget(max_strings=0), "budget limits must be positive"),
        (lambda: Budget(max_seconds=-1.0), "budget limits must be positive"),
        (lambda: Budget(max_seconds=float("nan")), "budget limits must be positive"),
    ])
    def test_validation_still_fires(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_python_examples_run(self, capsys):
        # every python block of the README runs as printed, in a namespace
        # of its own
        blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
        assert blocks
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
        capsys.readouterr()
