"""Independent brute-force oracles used to freeze expected values.

Everything here works on plain text (words as strings, blanks as '_') and
derives answers by a different route than the library: logogram membership
is computed backwards by marking every restriction of every word, clause
satisfiability by decoding literal sets and enumerating whole truth
tables, connectivity by union-find, compositeness by a sieve, and program
kernels by running the program on every word in turn.
"""

from itertools import product

BLANK = "_"


def all_words(alphabet: str, length: int) -> list[str]:
    return ["".join(p) for p in product(alphabet, repeat=length)]


def restrictions(word: str) -> list[str]:
    """Every partial string included in the word, as padded text."""
    out = [""]
    for ch in word:
        out = [p + BLANK for p in out] + [p + ch for p in out]
    return out


def includes(word: str, string: str) -> bool:
    return all(s == BLANK or s == w for s, w in zip(string, word))


def _immediate_restrictions(text: str):
    for i, ch in enumerate(text):
        if ch != BLANK:
            yield text[:i] + BLANK + text[i + 1:]


def logogram_members(e_words, a_words) -> set[str]:
    """All strings (padded text) whose presence in a word of E forces
    membership in A: computed by marking restrictions of words, never by
    expanding strings."""
    a = set(a_words)
    sigma: set[str] = set()
    bad: set[str] = set()
    for w in e_words:
        rs = restrictions(w)
        sigma.update(rs)
        if w not in a:
            bad.update(rs)
    return sigma - bad


def brute_reduced_logogram(e_words, a_words) -> list[str]:
    """Minimal logogram strings by unpruned enumeration, sorted by domain
    size then text."""
    log = logogram_members(e_words, a_words)
    minimal = [s for s in log
               if not any(r in log for r in _immediate_restrictions(s))]
    return sorted(minimal, key=lambda s: (sum(c != BLANK for c in s), s))


def sigma_members(e_words) -> set[str]:
    out: set[str] = set()
    for w in e_words:
        out.update(restrictions(w))
    return out


def canonical_order(strings, alphabet: str) -> list[str]:
    """Padded strings by domain size, then by their (position, letter index)
    cells: the library's canonical order."""
    def key(s: str):
        cells = [(p, alphabet.index(ch)) for p, ch in enumerate(s) if ch != BLANK]
        return len(cells), cells
    return sorted(strings, key=key)


def first_entailment(e_words, strings, excuse_extensions: bool):
    """Walk the ordered pairs (f, g) of distinct strings, f in list order and
    g in list order within each f, and stop at the first where every word of
    E including f includes g; with ``excuse_extensions``, a pair where f
    itself includes g does not count. Returns (pairs walked, (f, g) or
    None)."""
    walked = 0
    for f in strings:
        above = [x for x in e_words if includes(x, f)]
        for g in strings:
            if g == f:
                continue
            walked += 1
            if excuse_extensions and includes(f, g):
                continue
            if all(includes(x, g) for x in above):
                return walked, (f, g)
    return walked, None


def brute_internal_independence(e_words, alphabet: str, cap: int):
    """Internal independence over the first ``cap`` strings occurring in E,
    in canonical order: (strings checked, all strings checked, passed,
    pairs walked, first counterexample (f, g) or None)."""
    sigma = canonical_order(sigma_members(e_words), alphabet)
    strings = sigma[:cap]
    walked, hit = first_entailment(e_words, strings, excuse_extensions=True)
    return len(strings), len(strings) == len(sigma), hit is None, walked, hit


def neighbours_everywhere(e_words, alphabet: str) -> bool:
    """Does every word of E have, at every position, a neighbour in E: the
    same word with another letter there?

    By masks over the cube, bit i for the i-th word in lexicographic order,
    with L*k shifts and ANDs: at position p a letter holds runs of k^(L-p)
    words, so shifting E's words with letter d there down by d runs lines
    each up with its neighbours. A word has a neighbour at p when its
    shifted bit is set for at least two letters.
    """
    k = len(alphabet)
    length = len(e_words[0])
    e = 0
    for w in e_words:
        i = 0
        for ch in w:
            i = i * k + alphabet.index(ch)
        e |= 1 << i
    for p in range(1, length + 1):
        run = k ** (length - p)
        first_letter = sum(1 << i for i in range(k ** length) if i // run % k == 0)
        seen = twice = 0
        for d in range(k):
            moved = e >> d * run & first_letter
            twice |= seen & moved
            seen |= moved
        if seen & ~twice:
            return False
    return True


def first_separators(e_words, strings) -> tuple[list[tuple[str, str]], str | None]:
    """For each string in order, the first word of E (in the given word
    order) including it and no other string. Returns (separators so far,
    the first string without one or None)."""
    found = []
    for s in strings:
        others = [g for g in strings if g != s]
        word = next((x for x in e_words if includes(x, s)
                     and not any(includes(x, g) for g in others)), None)
        if word is None:
            return found, s
        found.append((s, word))
    return found, None


def completions(string: str, alphabet: str) -> list[str]:
    """Every word filling the blanks of the padded string."""
    out = [""]
    for ch in string:
        out = [p + c for p in out for c in (alphabet if ch == BLANK else ch)]
    return out


def containing_regions(e_words, alphabet: str, strings,
                       regions) -> list[tuple[tuple[int, ...], int]]:
    """For each padded string: the indices of the regions (word lists) that
    hold every word of E extending it, and how many words of E extend it.
    Every string is tested against every region, on sets of word texts."""
    e = set(e_words)
    region_sets = [set(r) for r in regions]
    out = []
    for s in strings:
        expansion = {w for w in completions(s, alphabet) if w in e}
        out.append((tuple(i for i, r in enumerate(region_sets) if expansion <= r),
                    len(expansion)))
    return out


def sweep_kernel(decide, name: str, alphabet: str, length: int,
                 e_words, a_words, minimal) -> tuple[list[str] | None, tuple[str, str] | None]:
    """A decision program's kernel by running it on every word of E.

    Words are visited in alphabet order. On each, the verdict must match
    membership in A, and the probed restriction (padded text) must be
    justified: every word of E completing it lies in A for an accept, none
    does for a reject. Returns (sorted kernel texts, None), or (None,
    (word, reason)) for the first word where the program fails.
    """
    e, a = set(e_words), set(a_words)
    sides: dict[str, set[bool]] = {}  # restriction -> membership of its completions
    used: set[str] = set()
    for w in all_words(alphabet, length):
        if w not in e:
            continue
        probes: dict[int, str] = {}

        def probe(p: int) -> str:
            probes[p] = w[p - 1]
            return w[p - 1]

        accepted = bool(decide(probe))
        if accepted != (w in a):
            return None, (w, f"{name} gave the wrong verdict")
        r = "".join(probes.get(p, BLANK) for p in range(1, length + 1))
        fresh = r not in sides
        if fresh:
            sides[r] = {c in a for c in completions(r, alphabet) if c in e}
        if sides[r] != {accepted}:
            verdict = "accept" if accepted else "reject"
            return None, (w, f"{name} was not justified in its {verdict}")
        if accepted and fresh:
            used.update(g for g in minimal if g not in used and includes(r, g))
    return sorted(used), None


# -- clause encoding ---------------------------------------------------------


def decode_clauses(word: str, var_count: int, clause_count: int) -> list[set[int]]:
    """Clause blocks as literal sets: +v for the variable, -v negated."""
    out = []
    for c in range(clause_count):
        lits = set()
        for v in range(var_count):
            ch = word[c * var_count + v]
            if ch == "1":
                lits.add(v + 1)
            elif ch == "2":
                lits.add(-(v + 1))
        out.append(lits)
    return out


def truth_table_satisfiable(word: str, var_count: int, clause_count: int) -> bool:
    clauses = decode_clauses(word, var_count, clause_count)
    for bits in product([False, True], repeat=var_count):
        true_lits = {v + 1 if bits[v] else -(v + 1) for v in range(var_count)}
        if all(cl & true_lits for cl in clauses):
            return True
    return False


# -- compositeness ------------------------------------------------------------


def sieve_composites(limit: int) -> set[int]:
    """Composite numbers below the limit, by sieve of Eratosthenes."""
    is_prime = [True] * max(limit, 2)
    is_prime[0] = is_prime[1] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if is_prime[p]:
            for q in range(p * p, limit, p):
                is_prime[q] = False
    return {x for x in range(4, limit) if not is_prime[x]}


# -- graph connectivity --------------------------------------------------------


def union_find_connected(vertices: int, edges: list[tuple[int, int]]) -> bool:
    parent = list(range(vertices + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(1, vertices + 1)}) == 1
