"""Finitely presented groups: presentations, coset enumeration, subgroup
presentations, and abelianization.

Words are tuples of (generator index, exponent) syllables, kept freely
reduced. A presentation is a tuple of generator names plus relator words;
`a^m = b^n` style relations normalize to the relator `a^m b^-n`.

Coset enumeration is Felsch-style: a deduction stack is processed after
every definition, and new cosets are defined at the lowest live coset and
lowest column first, so enumeration is deterministic. The enumerator keeps
its table by columns, one list per column, and each relator once, as its
letters, their columns and their inverse columns, each doubled: a
rotation is an offset into these, so storage is linear in the relator's
length. Every scan runs inline in one deduction loop and steps from entry
to entry without `find`, because outside coincidence processing live rows
name only live cosets: every entry is written with its mirror, and a
dying coset's row clears its entries' mirrors. Closed tables are
standardized: cosets are numbered in first appearance order, reading the
table row by row with columns interleaved as g, g^-1, next generator, and
so on, so that tables, spanning trees, and Schreier generators are
reproducible across runs. One breadth-first walk, the perm module's
`_first_appearance`, numbers both enumerated tables (live rows point
only at live cosets, so dead cosets drop out on the way) and tables read
off an action, as it numbers group elements, Cayley-graph columns and the
cosets of G/N there. Words longer than DEFAULT_MAX_COSETS letters are
refused before they are expanded. The enumerator keeps each distinct
rotation of each relator once: a relator that is a k-th power of its
primitive root has only len/k of them, so `a^10000` has one, and a
relator that is a cyclic conjugate of an earlier one adds none.

The lowest undefined entry is found from a cursor rather than by a rescan
from coset 0, so choosing the next definition no longer costs a pass over
the whole table. Every live row below the cursor is complete. Definitions
only fill entries or add cosets, and the one statement that empties an
entry of a possibly live row (in coincidence processing) lowers the cursor
to that row, so the cursor finds exactly the entry a rescan would.

Tables validate their own invariants on construction. One scan of the
entries checks that every column is a bijection and that cosets appear in
order, and records each coset's first entry as its spanning-tree edge,
which coset representatives and Schreier edges are read from. Every
relator must then act as the identity on the cosets, and the subgroup
words must fix coset 0.

One routine, `_word_action`, computes what a word does: the columns of
its syllables composed as lists, with a power g^e, and a word that is a
power of its primitive root, composed by repeated squaring (the perm
module's `_power`, which Perm powers use too): log e compositions instead
of e steps per point. Relators and subgroup words act on a table's
columns; `evaluate_word` and `verify_hom` act on permutation images.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BudgetExhausted, CapExceeded, PresentationSyntaxError
from .homalg import AbelianStructure, IntMatrix, cokernel_structure
from .perm import Perm, _first_appearance, _invert, _power

# Also the cap on a word's letters. `_primitive_period` and the enumerator's
# relator setup encode each distinct letter or syllable of a word as one
# character, so the cap must stay below 0x110000, the number of code points.
DEFAULT_MAX_COSETS = 1_000_000

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _reduce(syllables):
    stack = []
    for s in syllables:
        g, e = s[0], s[1]
        if type(e) is not int:  # refuses bool too; nothing is truncated
            raise ValueError(f"exponent {e!r} is not an integer")
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            merged = stack[-1][1] + e
            stack.pop()
            if merged:
                stack.append((g, merged))
        else:
            stack.append(s)  # an unmerged syllable is shared, not copied
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in abstract generators."""

    syllables: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "syllables", _reduce(self.syllables))

    def __mul__(self, other):
        return Word(self.syllables + other.syllables)

    def inverse(self):
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.syllables * k)  # reduced once, not after each factor

    def letter_count(self):
        return sum(abs(e) for _, e in self.syllables)

    def exponent_vector(self, ngens):
        vec = [0] * ngens
        for g, e in self.syllables:
            vec[g] += e
        return vec

    def substitute(self, images):
        """Replace generator g by images[g] throughout (an endomorphism)."""
        return Word(tuple(s for g, e in self.syllables for s in (images[g] ** e).syllables))

    def render(self, names):
        if not self.syllables:
            return "1"
        parts = []
        for g, e in self.syllables:
            parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
        return " ".join(parts)


def _columns(word):
    """The word as a tuple of coset table columns: 2*g for g, 2*g + 1 for g^-1.

    A word of more than DEFAULT_MAX_COSETS letters raises CapExceeded before
    it is expanded.
    """
    _check_letter_count(word)
    return tuple(c for g, e in word.syllables for c in (2 * g + (e < 0),) * abs(e))


def _check_letter_count(word):
    letters = word.letter_count()
    if letters > DEFAULT_MAX_COSETS:
        raise CapExceeded(f"word of {letters} letters exceeds cap {DEFAULT_MAX_COSETS}")


def _primitive_period(seq):
    """The length of the primitive root of a nonempty sequence: the least
    k > 0 with seq == seq[:k] * (len(seq) // k). It is the least rotation
    that maps seq to itself, found by one string search. Distinct items
    are encoded as chr(0), chr(1), ...: callers pass a word's letters or
    syllables, at most DEFAULT_MAX_COSETS of them by the letter cap."""
    code = {}
    s = "".join([chr(code.setdefault(x, len(code))) for x in seq])
    return (s + s).find(s, 1)


def _word_action(columns, syllables, identity):
    """The map a -> the point that tracing the word from a reaches, as a
    list: the columns of its syllables composed in order. columns[2*g] is
    what g does and columns[2*g + 1] what g^-1 does, as image lists or
    tuples: a coset table's columns, or permutation images. A syllable
    g^e, and a word that is a power of its primitive root, take log e
    compositions by repeated squaring. The only code that computes what a
    word does; callers check the letter count first."""
    if not syllables:
        return identity
    k = _primitive_period(syllables)
    out = identity
    for g, e in syllables[:k]:
        step = _power(columns[2 * g + (e < 0)], abs(e))
        out = step if out is identity else [step[x] for x in out]
    return _power(out, len(syllables) // k)


@dataclass(frozen=True)
class FpPresentation:
    """Generator names plus relator words."""

    generators: tuple
    relators: tuple

    def __post_init__(self):
        names = tuple(self.generators)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad generator name {name!r}")
        object.__setattr__(self, "generators", names)
        rels = tuple(self.relators)
        for w in rels:
            for g, _ in w.syllables:
                if not 0 <= g < len(names):
                    raise ValueError(f"relator uses unknown generator index {g}")
        object.__setattr__(self, "relators", rels)

    @property
    def ngens(self):
        return len(self.generators)

    def word(self, text):
        return parse_word(self.generators, text)

    def __str__(self):
        names = ", ".join(self.generators)
        rels = ", ".join(w.render(self.generators) for w in self.relators)
        return f"< {names} | {rels} >".replace("|  >", "| >")


def parse_word(names, text, base_pos=0):
    """Parse a word: juxtaposed `name ('^' integer)?` factors, '1' allowed."""
    syllables = []
    i = 0
    n = len(text)
    by_length = sorted(set(names), key=len, reverse=True)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        if text[i] == "1" and (i + 1 == n or not text[i + 1].isalnum()) \
                and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            i += 1
            continue
        matched = None
        for name in by_length:
            if text.startswith(name, i):
                matched = name
                break
        if matched is None:
            raise PresentationSyntaxError(
                f"expected a generator name in {text!r}", base_pos + i)
        g = names.index(matched)
        i += len(matched)
        while i < n and text[i].isspace():
            i += 1
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            while i < n and text[i].isspace():
                i += 1
            sign = 1
            if i < n and text[i] == "-":
                sign = -1
                i += 1
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i == start:
                raise PresentationSyntaxError("expected an integer exponent",
                                              base_pos + i)
            exp = sign * int(text[start:i])
        syllables.append((g, exp))
    return Word(tuple(syllables))


def parse_presentation(text):
    """Parse `< names | relations >`.

    Names are comma-separated identifiers. Relations are comma-separated,
    each a word or `word = word` (normalized to left * right^-1). An empty
    relation list is allowed.
    """
    stripped = text.strip()
    if not stripped:
        raise PresentationSyntaxError("empty presentation", 0)
    if not stripped.startswith("<"):
        raise PresentationSyntaxError("presentation must start with '<'",
                                      text.find(stripped[0]))
    if not stripped.endswith(">"):
        raise PresentationSyntaxError("presentation must end with '>'",
                                      len(text) - 1)
    open_pos = text.index("<")
    bar = text.find("|", open_pos)
    close = text.rfind(">")
    if bar < 0 or bar > close:
        raise PresentationSyntaxError("missing '|' separator", open_pos)
    names_part = text[open_pos + 1:bar]
    names = []
    pos = open_pos + 1
    for piece in names_part.split(","):
        name = piece.strip()
        if name:
            if not _NAME_RE.fullmatch(name):
                raise PresentationSyntaxError(f"bad generator name {name!r}",
                                              pos + piece.index(name.strip()[0]))
            if name in names:
                raise PresentationSyntaxError(f"duplicate generator {name!r}", pos)
            names.append(name)
        elif names_part.strip():
            raise PresentationSyntaxError("empty generator name", pos)
        pos += len(piece) + 1
    names = tuple(names)

    relators = []
    rel_part = text[bar + 1:close]
    pos = bar + 1
    for piece in rel_part.split(","):
        if piece.strip():
            sides = piece.split("=")
            if len(sides) == 1:
                relators.append(parse_word(names, sides[0], pos))
            elif len(sides) == 2:
                left = parse_word(names, sides[0], pos)
                right = parse_word(names, sides[1], pos + len(sides[0]) + 1)
                relators.append(left * right.inverse())
            else:
                raise PresentationSyntaxError("more than one '=' in a relation",
                                              pos + piece.index("=", piece.index("=") + 1))
        elif rel_part.strip():
            raise PresentationSyntaxError("empty relation", pos)
        pos += len(piece) + 1
    return FpPresentation(names, tuple(relators))


class CosetTable:
    """The action of a presented group on the cosets of a subgroup.

    Rows are cosets (0 is the subgroup itself); columns are interleaved
    g0, g0^-1, g1, g1^-1, ... The table is closed, compressed, and numbered
    in first appearance order. All invariants are checked on construction:
    one scan of the entries checks the columns and the order; then each
    relator's action, composed from its syllables' columns with powers by
    repeated squaring (`_word_action`), must fix every coset, and each
    subgroup word's action, composed the same way, must fix coset 0.
    """

    def __init__(self, presentation, subgroup_words, rows):
        self.presentation = presentation
        self.subgroup_words = tuple(subgroup_words)
        self.rows = tuple(tuple(r) for r in rows)
        self._validate()

    @property
    def index(self):
        return len(self.rows)

    def _validate(self):
        rows = self.rows
        n = len(rows)
        width = 2 * self.presentation.ngens
        if n == 0:
            raise ValueError("a coset table has at least one coset")
        if any(len(row) != width for row in rows):
            raise ValueError("row width disagrees with the generator count")
        # parent[t] is the entry (a, c) at which coset t first appears; a
        # row is scanned only after its coset has appeared, so a < t
        parent = [None]
        seen_max = 0
        for a, row in enumerate(rows):
            if a > seen_max:
                raise ValueError("table is not in first-appearance order")
            for c, t in enumerate(row):
                if not 0 <= t < n:
                    raise ValueError(f"entry {t} out of range at ({a}, {c})")
                if rows[t][c ^ 1] != a:
                    raise ValueError(f"column {c} is not a bijection at coset {a}")
                if t > seen_max:
                    if t != seen_max + 1:
                        raise ValueError("table is not in first-appearance order")
                    seen_max = t
                    parent.append((a, c))
        self._parent = tuple(parent)
        # every column is now a permutation, so a relator's action is its
        # syllables' columns composed
        columns = [list(col) for col in zip(*rows)]  # columns[c][a] = rows[a][c]
        identity = list(range(n))
        for rel in self.presentation.relators:
            _check_letter_count(rel)  # refused like any word too long to expand
            action = _word_action(columns, rel.syllables, identity)
            if action != identity:
                a = next(a for a in identity if action[a] != a)
                raise ValueError(f"relator does not close at coset {a}")
        for w in self.subgroup_words:
            _check_letter_count(w)
            if _word_action(columns, w.syllables, identity)[0] != 0:
                raise ValueError("subgroup word does not fix coset 0")

    def coset_representative_words(self):
        """Word reaching each coset from coset 0 along the spanning tree."""
        reps = [Word()]
        for a, c in self._parent[1:]:
            reps.append(reps[a] * Word(((c >> 1, -1 if c & 1 else 1),)))
        return reps

    def schreier_edges(self):
        """The non-tree edges a --g--> a.g of the coset graph, as (a, g)
        pairs in scan order. For an index-n subgroup of a rank-r free group
        there are n*r - n + 1 of them."""
        parent = self._parent
        edges = []
        for a, row in enumerate(self.rows):
            for g in range(self.presentation.ngens):
                b = row[2 * g]
                if parent[b] != (a, 2 * g) and parent[a] != (b, 2 * g + 1):
                    edges.append((a, g))
        return edges

    def schreier_generators(self):
        """Subgroup generators from the non-tree edges of the coset graph.

        Returns (coset, generator, word) triples in the order of
        `schreier_edges`; `word` is the Schreier element
        u_coset * g * u_{coset.g}^-1 written in the original generators.
        """
        reps = self.coset_representative_words()
        return [(a, g, reps[a] * Word(((g, 1),)) * reps[self.rows[a][2 * g]].inverse())
                for a, g in self.schreier_edges()]

    def __str__(self):
        names = self.presentation.generators
        header = []
        for name in names:
            header.extend([name, name + "'"])
        lines = ["coset  " + "  ".join(header)]
        for a, row in enumerate(self.rows):
            lines.append(f"{a:>5}  " + "  ".join(str(t) for t in row))
        return "\n".join(lines)


class _Enumerator:
    """Felsch-style coset enumeration state, stored by columns.

    columns[c][a] is the coset that coset a reaches along column c (g0,
    g0^-1, g1, g1^-1, ...), or None while that entry is undefined; p is the
    union-find forest of the coincidences. Every entry is written together
    with its mirror (columns[c ^ 1][b] = a when columns[c][a] = b).

    Each relator is kept once, as its letters, their columns and their
    inverse columns, each doubled, so the rotation starting at letter k is
    the offset k into them: a scan reads fwd[i][f] forward and bwd[j][b]
    backward, and storage is linear in the relator's length. A relator that
    is a cyclic conjugate of an earlier one adds nothing, and a relator of
    primitive period k has the k rotations 0..k-1. rot_by_first maps a
    column to the rotations that start with it, as (first offset, last
    offset, letters, fwd, bwd), in relator order.

    Outside coincidence processing, live rows name only live cosets: a
    dying coset's row clears its entries' mirrors before `coincide`
    returns. So the scans, which run inline in the deduction loop of
    `run`, step from entry to entry without `find`; only each rotation's
    start coset is resolved, since an earlier rotation's coincidence can
    kill it.
    """

    def __init__(self, presentation, subgroup_words, max_cosets):
        self.cols = 2 * presentation.ngens
        self.max_cosets = max_cosets
        self.columns = columns = [[None] for _ in range(self.cols)]
        self.p = [0]
        # every live row below the cursor is complete (see first_undefined)
        self.cursor = 0
        self.deductions = []
        self.rot_by_first = {}
        # the doubled letter strings of the relators kept so far, keyed by
        # their length and their distinct letters, which cyclic conjugates
        # share
        kept = {}
        for rel in presentation.relators:
            letters = _columns(rel)
            if not letters:
                continue
            distinct = sorted(set(letters))
            # each letter as one character, its rank among the distinct
            # letters, so relators with one key share the code
            code = {x: chr(r) for r, x in enumerate(distinct)}
            s = "".join([code[x] for x in letters])
            doubled = kept.setdefault((len(s), *distinct), [])
            if any(s in t for t in doubled):
                continue
            doubled.append(s + s)
            n = len(letters)
            letters = letters + letters
            fwd = [columns[x] for x in letters]
            bwd = [columns[x ^ 1] for x in letters]
            for k in range(doubled[-1].find(s, 1)):  # the primitive period
                self.rot_by_first.setdefault(letters[k], []).append(
                    (k, k + n - 1, letters, fwd, bwd))
        self.subgroup_letters = [_columns(w) for w in subgroup_words]

    def find(self, i):
        r = i
        p = self.p
        while p[r] != r:
            r = p[r]
        while p[i] != r:
            p[i], i = r, p[i]
        return r

    def define(self, a, c):
        p = self.p
        b = len(p)
        if b >= self.max_cosets:
            live = sum(1 for i, r in enumerate(p) if i == r)
            raise BudgetExhausted(
                f"coset budget {self.max_cosets} exhausted with {live} live "
                "cosets; index unknown (possibly infinite)")
        columns = self.columns
        for col in columns:
            col.append(None)
        p.append(b)
        columns[c][a] = b
        columns[c ^ 1][b] = a
        self.deductions.append((a, c))

    def _merge(self, a, b, queue):
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        queue.append(b)

    def coincide(self, a, b):
        columns, find = self.columns, self.find
        queue = []
        self._merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            for c, col in enumerate(columns):
                d = col[dead]
                if d is None:
                    continue
                col[dead] = None
                inv = columns[c ^ 1]
                if inv[d] == dead:
                    # the only place an entry of a possibly live row is
                    # emptied, so the cursor invariant is restored here
                    inv[d] = None
                    if d < self.cursor:
                        self.cursor = d
                mu = find(dead)
                nu = find(d)
                if col[mu] is not None:
                    self._merge(find(col[mu]), nu, queue)
                elif inv[nu] is not None:
                    self._merge(find(inv[nu]), mu, queue)
                else:
                    col[mu] = nu
                    inv[nu] = mu
                    self.deductions.append((mu, c))

    def fill(self, letters):
        """Trace a subgroup word from coset 0 back to coset 0, defining
        cosets until one gap is left, then deducing or coinciding."""
        columns = self.columns
        f = b = self.find(0)
        i, j = 0, len(letters) - 1
        while True:
            while i <= j:
                t = columns[letters[i]][f]
                if t is None:
                    break
                f = t
                i += 1
            if i > j:
                break
            while j >= i:
                t = columns[letters[j] ^ 1][b]
                if t is None:
                    break
                b = t
                j -= 1
            if j < i:
                break
            if j == i:
                columns[letters[i]][f] = b
                columns[letters[i] ^ 1][b] = f
                self.deductions.append((f, letters[i]))
                return
            self.define(f, letters[i])
        if f != b:
            self.coincide(f, b)

    def first_undefined(self):
        """The lowest undefined entry of the lowest live coset, or None.

        Scans from the cursor and leaves it at the row returned (or at the
        end of the table when it is complete).
        """
        columns, p = self.columns, self.p
        for a in range(self.cursor, len(p)):
            if p[a] == a:
                for c, col in enumerate(columns):
                    if col[a] is None:
                        self.cursor = a
                        return a, c
        self.cursor = len(p)
        return None

    def run(self):
        """Enumerate until the table closes, and return its standardized rows.

        One loop processes the deduction stack, most recent deduction
        first: every rotation that starts with a deduced entry's column is
        scanned from its coset, and every rotation that starts with the
        inverse column from the coset it names. A scan closes the relator
        (or finds a coincidence), deduces its one missing entry, or stops
        at a gap of two or more letters. When the stack is empty, the next
        subgroup word is traced from coset 0, or else the lowest undefined
        entry is defined.
        """
        columns, p, find, coincide = self.columns, self.p, self.find, self.coincide
        deductions = self.deductions
        get = self.rot_by_first.get
        words = iter(self.subgroup_letters)
        while True:
            while deductions:
                a, c = deductions.pop()
                if p[a] != a:
                    a = find(a)
                start = a
                for first in (c, c ^ 1):
                    if first != c:
                        # the deduced entry's other end, unless a scan killed a
                        start = columns[c][a]
                        if start is None:
                            break
                    for i, j, letters, fwd, bwd in get(first, ()):
                        f = b = start if p[start] == start else find(start)
                        while i <= j:
                            t = fwd[i][f]
                            if t is None:
                                break
                            f = t
                            i += 1
                        else:
                            if f != b:
                                coincide(f, b)
                            continue
                        while j >= i:
                            t = bwd[j][b]
                            if t is None:
                                break
                            b = t
                            j -= 1
                        else:
                            if f != b:
                                coincide(f, b)
                            continue
                        if i == j:
                            fwd[i][f] = b
                            bwd[i][b] = f
                            deductions.append((f, letters[i]))
            word = next(words, None)
            if word is not None:
                if word:
                    self.fill(word)
                continue
            pos = self.first_undefined()
            if pos is None:
                break
            self.define(*pos)
        # In the closed table a live row points only at live cosets (see
        # the class docstring), so the walk reads the entries as they are.
        # Every live coset has a row, so the state cap never trips here.
        return _first_appearance(0, self.cols, lambda a, c: columns[c][a],
                                 len(p))[2]


def todd_coxeter(presentation, subgroup_words=(), max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate the cosets of the subgroup generated by `subgroup_words`.

    If the enumeration closes within `max_cosets` total definitions, the
    returned table's index is the true subgroup index. Exhausting the budget
    raises BudgetExhausted: the index is then unknown (and possibly
    infinite), never silently wrong.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    subgroup_words = tuple(subgroup_words)
    enum = _Enumerator(presentation, subgroup_words, max_cosets)
    return CosetTable(presentation, subgroup_words, enum.run())


def evaluate_word(word, images):
    """Evaluate a word at permutation images of the generators, all of one
    degree (mixed degrees are refused, whatever the word).

    The images' tuples and their inverses' are composed syllable by
    syllable by `_word_action`, with powers by repeated squaring, so
    `a^999997` takes about 40 compositions. A word of more than
    DEFAULT_MAX_COSETS letters raises CapExceeded, as everywhere else.
    """
    if not images:
        raise ValueError("no images to evaluate at")
    if len({g.degree for g in images}) > 1:
        raise ValueError("images have mixed degrees")
    _check_letter_count(word)
    columns = [c for g in images for c in (g.images, _invert(g.images))]
    return Perm._raw(tuple(_word_action(columns, word.syllables, range(images[0].degree))))


def verify_hom(presentation, images):
    """True iff sending the generators to `images` kills every relator."""
    if len(images) != len(presentation.generators):
        raise ValueError(
            f"{len(presentation.generators)} generators but {len(images)} images")
    # with no relators, the empty word still has `evaluate_word` check the images
    return not images or all(evaluate_word(rel, images).is_identity()
                             for rel in presentation.relators or (Word(),))


def coset_table_from_action(presentation, initial, act, max_states):
    """Coset table of a stabilizer, from an explicit transitive action.

    `act(state, gen, sign)` must implement a well-defined action of the
    presented group (relators must act trivially; this is re-checked by the
    CosetTable invariants). States are discovered breadth-first in column
    order, which yields the standardized numbering directly.
    """
    rows = _first_appearance(
        initial, 2 * presentation.ngens,
        lambda state, c: act(state, c >> 1, -1 if c & 1 else 1), max_states)[2]
    return CosetTable(presentation, (), rows)


def kernel_coset_table(presentation, images):
    """Coset table of the kernel of the homomorphism given by `images`.

    Cosets of the kernel correspond to elements of the image group, acted on
    by right translation; the index is the image group's order.
    """
    if not verify_hom(presentation, images):
        raise ValueError("the images do not satisfy the relators")
    if not images:
        return todd_coxeter(presentation, ())
    inverses = [g.inverse() for g in images]

    def act(state, gen, sign):
        return state * (images[gen] if sign > 0 else inverses[gen])

    return coset_table_from_action(
        presentation, Perm.identity(images[0].degree), act, DEFAULT_MAX_COSETS)


def reidemeister_schreier(presentation, table):
    """Presentation of the subgroup a closed coset table describes.

    Generators are the Schreier generators (one per non-tree edge); relators
    are every original relator rewritten at every coset (index x relator
    count of them before reduction). Simplification is deliberately minimal:
    free reduction plus removal of relators of length <= 1 and of the
    generators such relators trivialize. No Tietze search is attempted, so
    the output is deterministic.
    """
    edges = table.schreier_edges()
    rows = table.rows
    # crossing[a][c]: the Schreier letter entry (a, c) runs along; None on the tree
    crossing = [[None] * len(rows[0]) for _ in rows]
    for k, (a, g) in enumerate(edges):
        crossing[a][2 * g] = (k, 1)
        crossing[rows[a][2 * g]][2 * g + 1] = (k, -1)
    relator_columns = [_columns(rel) for rel in presentation.relators]
    rels = []
    for alpha in range(table.index):
        for columns in relator_columns:
            cur = alpha
            letters = []
            for c in columns:
                letter = crossing[cur][c]
                if letter:
                    letters.append(letter)
                cur = rows[cur][c]
            if cur != alpha:
                raise RuntimeError("relator trace did not close")  # unreachable
            rels.append(_reduce(letters))

    # Deleting a set K of generators and then reducing freely is the
    # free-group retraction that kills K. That map is unique and composes
    # over unions, so a relator whose image is x^+-1 keeps that image, or
    # becomes empty, as K grows. So a relator that reduces to x^+-1 under a
    # killed set inside the least fixpoint forces x into it too, and x can
    # be killed at once, within the pass. A pass that kills nothing has
    # re-reduced every relator by the whole killed set and found no x^+-1,
    # so that set is a fixpoint, and the least one.
    killed, size = set(), -1
    while len(killed) > size:
        size = len(killed)
        for i, r in enumerate(rels):
            if not killed.isdisjoint([g for g, _ in r]):
                r = rels[i] = _reduce(s for s in r if s[0] not in killed)
            if len(r) == 1 and abs(r[0][1]) == 1:
                killed.add(r[0][0])
        rels = [r for r in rels if r]

    alive = [k for k in range(len(edges)) if k not in killed]
    remap = {old: new for new, old in enumerate(alive)}
    names = tuple(f"x{k}" for k in alive)
    relators = tuple(Word(tuple((remap[g], e) for g, e in r)) for r in rels)
    return FpPresentation(names, relators)


def abelianization(presentation):
    """Structure of the presented group made abelian."""
    if not presentation.relators:
        return AbelianStructure(free_rank=presentation.ngens)
    rows = [w.exponent_vector(presentation.ngens) for w in presentation.relators]
    return cokernel_structure(IntMatrix(rows))
