"""Fixtures: the two-machine workcell with a coordinator, whose synthesis
results are known exactly and serve as golden data throughout the suite."""

from dataclasses import dataclass

import pytest

from descoord import (
    Alphabet,
    CoordinationScheme,
    Generator,
    default_coordinator,
    from_words,
    union_alphabets,
)
from descoord import cli, coordination


@dataclass(frozen=True)
class Workcell:
    """Two machines: each either joins a common cycle ``c`` (then releases
    its private uncontrollable ``u1``/``u2``) or starts privately
    (``a1``/``a2``) and synchronizes on the shared uncontrollable
    completion ``u``.  The requirement drops one interleaving and the
    completion of another."""

    e1: Alphabet
    e2: Alphabet
    ek: Alphabet
    full: Alphabet
    g1: Generator
    g2: Generator
    gk: Generator
    k: Generator
    scheme: CoordinationScheme

    def over_full(self, *words) -> Generator:
        return from_words(self.full, words)

    def over_ek(self, *words) -> Generator:
        return from_words(self.ek, words)


@pytest.fixture(autouse=True)
def no_kept_project():
    """Start each test with no project kept by ``load_project`` and no
    subset constructions kept for a specification, so that the order of
    the tests cannot change what one of them reads or builds."""
    cli._last = None
    coordination._kept.clear()


@pytest.fixture(scope="session")
def cell() -> Workcell:
    e1 = Alphabet({"a1", "c", "u", "u1"}, {"a1", "c"})
    e2 = Alphabet({"a2", "c", "u", "u2"}, {"a2", "c"})
    full = union_alphabets(e1, e2)
    ek = full.restrict({"a1", "a2", "c", "u"})
    g1 = from_words(e1, ["c.u1", "a1.u"])
    g2 = from_words(e2, ["c.u2", "a2.u"])
    gk = default_coordinator(g1, g2, ek)
    k = from_words(full, ["a2.a1", "a1.a2.u", "c.u1.u2", "c.u2.u1"])
    return Workcell(e1, e2, ek, full, g1, g2, gk, k,
                    CoordinationScheme(e1, e2, ek))
