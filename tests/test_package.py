"""The package surface: names resolved on first use, lean start-up, and
the value types' equality, hashing, immutability and repr."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import logogram
from logogram import Alphabet, Antichain, Budget, CnfShape, PartialString, sat_problem

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
        assert not cli_modules("--help") & ANALYSIS_LAYERS

    def test_logogram_loads_neither_tracer_nor_wizardry(self):
        loaded = cli_modules("logogram", "sat", "2", "2")
        assert "logogram.engine" in loaded
        assert not loaded & {"logogram.tracer", "logogram.wizardry"}

    def test_kernel_loads_tracer_but_not_wizardry(self):
        loaded = cli_modules("kernel", "sat", "1", "1")
        assert "logogram.tracer" in loaded
        assert "logogram.wizardry" not in loaded

    def test_public_names_need_no_dataclasses(self):
        loaded = modules_after(
            "import logogram\nfor name in logogram.__all__:\n    getattr(logogram, name)")
        assert ANALYSIS_LAYERS <= loaded
        assert "dataclasses" not in loaded


# (make a value, make an equal one, make a different one, field, repr)
VALUES = [
    (lambda: PartialString(((3, "2"), (1, "1"))), lambda: PartialString.of({1: "1", 3: "2"}),
     lambda: PartialString(((1, "1"),)), "pairs", "PartialString('1_2')"),
    (lambda: Alphabet(("0", "1")), lambda: Alphabet.of("01"), lambda: Alphabet(("1", "0")),
     "letters", "Alphabet(letters=('0', '1'))"),
    (lambda: CnfShape(2, 3), lambda: CnfShape(var_count=2, clause_count=3),
     lambda: CnfShape(3, 2), "var_count", "CnfShape(var_count=2, clause_count=3)"),
    (lambda: Budget(10, 2.5), lambda: Budget(max_strings=10, max_seconds=2.5),
     lambda: Budget(10), "max_seconds", "Budget(max_strings=10, max_seconds=2.5)"),
]


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
        assert chain == Antichain(chain.pairs, Alphabet.of("012"))
        assert hash(chain) == hash(Antichain(chain.pairs, Alphabet.of("012")))
        assert chain != Antichain(chain.pairs, Alphabet.of("021"))
        assert chain != Antichain(chain.pairs[1:], chain.alphabet)

    @pytest.mark.parametrize("build, message", [
        (lambda: PartialString(((0, "1"),)), "positions must be integers >= 1"),
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
