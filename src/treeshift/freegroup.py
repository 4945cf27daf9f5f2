"""Freely reduced words over n generator pairs.

A letter is a nonzero integer: ``+(i + 1)`` is the i-th positive generator,
``-(i + 1)`` its inverse.  Words are never changed once built, are always
freely reduced, and carry the rank of their ambient free group; combining
words of different ranks is an error, never a coercion.

Rendering: generator i prints as ``g{i}``, its inverse as ``g{i}'``, and the
empty word as ``e``.  The canonical order on words is length first, then
lexicographic by (generator index, sign) with the positive sign first.
Parsing reads every token through one table per rank, whose misses raise
the :func:`parse_letter` error.

Letters are checked where they enter: ``Word(rank, letters)``, :func:`parse_word`,
:func:`reduce`, and the letter given to :meth:`Word.append`.  Every other
operation builds its result from reduced words through the unchecked :func:`_word`
(:func:`extend` is the unchecked ``append``).  A word hashes its doubled letters:
CPython hashes -1 and -2 alike, so the letters' own hash confuses ``g0'`` with ``g1'``.

Keys: inside a tree a reduced word is stored as one integer, its key.  With
B = 2*rank + 1, the digit of generator i is 2i + 1 and of its inverse 2i + 2,
and a word's key is ``k = k*B + digit`` over its letters.  So the empty word
is 0, the parent of k is ``k // B``, its last digit ``k % B``, the children of
k lie in ``[k*B + 1, k*B + 2*rank]``, a word has length <= r exactly when
``k < B**r``, and numeric order is the canonical order.  Keys hash and compare
in C without collisions.  This module is the only one that maps letters,
tokens and words to digits and keys; :func:`key_words` and :func:`key_texts`
name a whole key set at once, each name built from its parent's.  The other
way round, :func:`text_keys` reads a text listed after its parent's text as
that key times B plus the digit of its last token, and parses every other
text whole with :func:`parse_key`, so the keys and errors are the same.
:func:`ball_json` prints the texts of a ball with their values in the
order of the texts, by one walk over keys, and yields the text in pieces of
whole lines through :func:`chunks`, so its memory stays bounded whatever the
ball's size.
"""
from __future__ import annotations

from functools import lru_cache, partial
from json import dumps
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import Alphabet, InsufficientDepthError, InvalidGeneratorError, RankMismatchError


def letter_key(letter: int) -> tuple[int, int]:
    """Sort key realising the canonical letter order g0 < g0' < g1 < g1' < ..."""
    return (abs(letter) - 1, 0 if letter > 0 else 1)


def letter_str(letter: int, prefix: str = "g") -> str:
    base = f"{prefix}{abs(letter) - 1}"
    return base if letter > 0 else base + "'"


def parse_letter(token: str, rank: int, prefix: str = "g") -> int:
    inverse = token.endswith("'")
    body = token[:-1] if inverse else token
    if not body.startswith(prefix) or not body[len(prefix):].isdigit():
        raise InvalidGeneratorError(f"cannot parse generator token {token!r}")
    index = int(body[len(prefix):])
    if index >= rank:
        raise InvalidGeneratorError(f"generator {token!r} out of range for rank {rank}")
    return -(index + 1) if inverse else index + 1


def signed_letters(rank: int) -> list[int]:
    """All 2*rank letters in canonical order."""
    return [x for i in range(1, rank + 1) for x in (i, -i)]


def check_letters(letters: Sequence[int], rank: int) -> None:
    if rank < 1:
        raise InvalidGeneratorError(f"rank must be >= 1, got {rank}")
    for x in letters:
        if x == 0 or abs(x) > rank:
            raise InvalidGeneratorError(f"letter {x} invalid for rank {rank}")


class Word:
    """A freely reduced word; doubles as a vertex name in the Cayley tree.

    Not an :class:`errors.Value`: its hash doubles the letters (see above), and
    the benchmark counts calls to its own ``__eq__``."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: tuple[int, ...] = ()) -> None:
        self.rank = rank
        self.letters = letters
        self.__post_init__()

    def __post_init__(self) -> None:
        check_letters(self.letters, self.rank)
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"word {self.letters} is not freely reduced")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Word:
            return NotImplemented
        return self.rank == other.rank and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(tuple(map(_TWICE, self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(map(_LETTER_TEXTS.__getitem__, self.letters))

    def __repr__(self) -> str:
        return f"Word({self.rank}, {str(self)!r})"

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    @property
    def last(self) -> int:
        if not self.letters:
            raise ValueError("the empty word has no last letter")
        return self.letters[-1]

    def prefix(self, k: int) -> "Word":
        return _word(self.rank, self.letters[:k])

    @property
    def parent(self) -> "Word":
        """The word with the last letter removed."""
        return self.prefix(len(self.letters) - 1)

    def append(self, letter: int) -> "Word":
        """Right-multiply by a single letter (reduces if it cancels)."""
        check_letters((letter,), self.rank)
        return extend(self, letter)

    def children(self) -> list["Word"]:
        """The one-letter extensions that do not cancel, in canonical order."""
        rank, letters = self.rank, self.letters
        back = -letters[-1] if letters else 0
        return [_word(rank, letters + (x,)) for x in signed_letters(rank) if x != back]

    def inverse(self) -> "Word":
        return _word(self.rank, tuple(-x for x in reversed(self.letters)))

    def sort_key(self) -> tuple:
        return (len(self.letters), tuple(letter_key(x) for x in self.letters))


_TWICE = (2).__mul__


class _Filled(dict):
    """A dict that stores ``fill(key)`` for each key it misses, so its size
    follows the input, not the rank.  What ``fill`` raises, it raises."""

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


_LETTER_TEXTS = _Filled(letter_str)  # letter -> token


def extend(w: Word, letter: int) -> Word:
    """:meth:`Word.append` for a letter already known to be in range."""
    letters = w.letters
    if letters and letters[-1] == -letter:
        return _word(w.rank, letters[:-1])
    return _word(w.rank, letters + (letter,))


_CHUNK = 1 << 16  # characters: the printers yield their text in pieces of about this size


def chunks(head: str, lines: Iterable[str], sep: str, tail: str) -> Iterator[str]:
    """``head + sep.join(lines) + tail``, yielded in pieces that end where a
    line ends.  A piece passes ``_CHUNK`` characters only if it holds one line
    alone, or by the ``tail`` of the last piece, so a printer's memory follows
    its longest line, not its output.  At least one line is expected."""
    buf: list[str] = []
    size, lead, step = len(head), head, len(sep)
    for line in lines:
        size += len(line) + step
        if size > _CHUNK and buf:
            yield lead + sep.join(buf)
            buf, size, lead = [], len(line) + step, sep
        buf.append(line)
    yield lead + sep.join(buf) + tail


def ball_json(rank: int, radius: int, values: Mapping[int, object],
              token: Callable[[int], str] = letter_str) -> Iterator[str]:
    """What ``dumps_json({"depth": radius, "values": texts})`` prints, in the
    pieces of :func:`chunks`, where ``texts`` maps the text of each reduced
    word of length <= radius to the value of its key in ``values``, or to
    ``None`` where the key is missing.

    A text joins the word's tokens with spaces (``"e"`` for the empty word).
    The missing keys must be closed under extension, as an itinerary's dead
    words are, and values that compare equal must print alike, as the
    distinct symbols of an ``Alphabet`` do: each prints once.  The lines come
    out of one depth-first walk with each word's children in the string order
    of their tokens, which is the order ``sort_keys`` gives, because no token
    holds a character at or below ``" "`` and no two letters share a token;
    ``"e"`` goes where it sorts among the first tokens.  A word missing from
    ``values`` whose subtree prints in at most ``_CHUNK // 8`` characters
    prints it from one list of suffixes, shared by the missing words of the
    same last digit and depth left; a larger one is walked like a live word.
    The walk keeps its own stack, so any radius prints without recursion.
    """
    check_letters((), rank)
    base, small = key_base(rank), _CHUNK // 8
    tokens = {d: token(digit_letter(d)) for d in range(1, base)}
    escaped = {d: encode_basestring_ascii(t)[1:-1] for d, t in tokens.items()}
    order = sorted(tokens, key=tokens.__getitem__)
    # (digit, " " + escaped token) of each child after a last digit, last child first
    pushes = [[(c, " " + escaped[c]) for c in reversed(order) if c != inverse_digit(d)]
              for d in range(base)]
    rendered = {v: dumps(v) for v in set(values.values())}
    # room[left]: the longest text whose missing subtree, left levels deep,
    # prints in `small` characters: `count` lines of at most that text, a
    # suffix of left tokens of `width` and '": null,\n'
    width, room, count = 1 + max(map(len, escaped.values())), [], 1
    while len(room) <= radius and count <= small:
        room.append(small // count - len(room) * width - 9)
        count = count * (base - 2) + 1
    tails: dict[tuple[int, int], list[str]] = {}

    def dead_tails(d: int, left: int) -> list[str]:
        """What follows the text of a missing word of last digit d on its own
        line and on those of its subtree, ``left`` levels deep."""
        out, stack = [], [("", d, left)]
        while stack:
            text, d, left = stack.pop()
            out.append(text + '": null')
            if left:
                stack += [(text + t, c, left - 1) for c, t in pushes[d]]
        return out

    def lines() -> Iterator[str]:
        # the first words' texts do not start with "e ", so they start the stack themselves
        stack = [(c, '    "' + escaped[c], radius - 1) for c in reversed(order)] if radius else []
        stack.insert(sum(tokens[c] > "e" for c in order), (0, '    "e', 0))
        while stack:
            k, text, left = stack.pop()
            if k in values:
                yield text + '": ' + rendered[values[k]]
            elif left < len(room) and len(text) <= room[left]:
                ends = tails.get((k % base, left))
                if ends is None:
                    ends = tails[k % base, left] = dead_tails(k % base, left)
                yield text + (",\n" + text).join(ends)
                continue  # the suffixes printed the subtree
            else:
                yield text + '": null'
            if left:
                stack += [(k * base + c, text + t, left - 1) for c, t in pushes[k % base]]

    head = '{\n  "depth": ' + str(radius) + ',\n  "values": {\n'
    return chunks(head, lines(), ",\n", "\n  }\n}\n")


class _EmptySymbol:
    """The symbol of a word that has none; ``S_EMPTY`` is its one instance."""

    def __repr__(self) -> str:
        return "s_empty"


S_EMPTY = _EmptySymbol()


class BallTable:
    """Symbols on the radius-``depth`` ball of the free group of rank
    ``source_rank``: a configuration decoded from a tree, or an itinerary.

    ``values`` maps word keys to symbols of ``alphabet``.  A decoded table
    holds every key of its ball; an itinerary holds its live words only, and
    a word of the ball whose key is missing reads as ``S_EMPTY``.
    """

    def __init__(self, source_rank: int, depth: int, alphabet: Alphabet,
                 values: Mapping[int, object]) -> None:
        self.source_rank = source_rank
        self.depth = depth
        self.alphabet = alphabet
        self.values = values

    def eval_word(self, w: Word) -> object:
        if w.rank != self.source_rank:
            raise RankMismatchError(f"word rank {w.rank} vs table rank {self.source_rank}")
        if len(w) > self.depth:
            raise InsufficientDepthError(f"word {w} lies past the table's depth {self.depth}")
        return self.values.get(word_key(w), S_EMPTY)

    def validate_propagation(self) -> list[str]:
        rank, base = self.source_rank, key_base(self.source_rank)
        return [f"{key_word(k, rank)} is live below the dead word {key_word(k // base, rank)}"
                for k in self.values if k and k // base not in self.values]


def _word(rank: int, letters: tuple[int, ...], _new=object.__new__) -> Word:
    """Word from letters already known to be in range and freely reduced
    (``_new`` is bound once: every trusted word is built here)."""
    w = _new(Word)
    w.rank = rank
    w.letters = letters
    return w


def identity(rank: int) -> Word:
    return Word(rank, ())


def reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce an arbitrary letter sequence."""
    letters = tuple(letters)
    check_letters(letters, rank)
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return _word(rank, tuple(out))


def multiply(w1: Word, w2: Word) -> Word:
    """Product of reduced words: letters can cancel only where the two meet."""
    if w1.rank != w2.rank:
        raise RankMismatchError(f"cannot multiply rank {w1.rank} by rank {w2.rank}")
    a, b = w1.letters, w2.letters
    k, n = 0, min(len(a), len(b))
    while k < n and a[-1 - k] == -b[k]:
        k += 1
    return _word(w1.rank, a[:len(a) - k] + b[k:])


def enumerate_spheres(rank: int, radius: int) -> list[list[Word]]:
    """Words of length exactly 0, 1, ..., radius, each level in canonical order."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    levels = [[identity(rank)]]
    for _ in range(radius):
        levels.append([c for w in levels[-1] for c in w.children()])
    return levels


def enumerate_ball(rank: int, radius: int) -> list[Word]:
    """All reduced words of length <= radius in canonical order.

    The count is 1 + sum_{i=1..radius} 2*rank * (2*rank - 1)^(i-1), and
    enumerate_ball(rank, j) is a prefix of enumerate_ball(rank, j + 1).
    """
    return [w for level in enumerate_spheres(rank, radius) for w in level]


def ball_size(rank: int, radius: int) -> int:
    total = 1
    count = 1
    for _ in range(radius):
        count *= (2 * rank - 1) if count > 1 else 2 * rank
        total += count
    return total


@lru_cache(maxsize=16)
def _token_table(rank: int) -> _Filled:
    """Generator tokens of one rank -> their letters; a token that names no
    letter raises the :func:`parse_letter` error."""
    return _Filled(partial(parse_letter, rank=rank))


def _parse_letters(text: str, rank: int) -> tuple[int, ...]:
    """The freely reduced letters of ``text``, each token read through the
    token table."""
    text = text.strip()
    if text in ("e", ""):
        check_letters((), rank)
        return ()
    return reduce(map(_token_table(rank).__getitem__, text.split()), rank).letters


def parse_word(text: str, rank: int) -> Word:
    """Parse the rendering produced by ``str(word)`` (``"e"`` or ``"g0 g1'"``)."""
    return _word(rank, _parse_letters(text, rank))


def key_base(rank: int) -> int:
    """The base B of the keys of words of this rank."""
    return 2 * rank + 1


def letter_digit(x: int) -> int:
    return 2 * x - 1 if x > 0 else -2 * x


def digit_letter(d: int) -> int:
    return (d + 1) >> 1 if d & 1 else -(d >> 1)


def inverse_digit(d: int) -> int:
    """The digit of the inverse of the letter of digit d (-1 for d = 0, which
    matches no digit)."""
    return d + 1 if d & 1 else d - 1


def _letters_key(letters: Iterable[int], rank: int) -> int:
    base, k = key_base(rank), 0
    for x in letters:
        k = k * base + (2 * x - 1 if x > 0 else -2 * x)
    return k


def word_key(w: Word) -> int:
    return _letters_key(w.letters, w.rank)


def key_word(k: int, rank: int) -> Word:
    """The word of one key; :func:`key_words` names a whole key set."""
    base, letters = key_base(rank), []
    while k:
        k, d = divmod(k, base)
        letters.append(digit_letter(d))
    return _word(rank, tuple(reversed(letters)))


def key_words(keys: list[int], rank: int) -> dict[int, Word]:
    """The word of each key of an ascending key list, each built from its
    parent's letters (a key whose parent is missing is decoded alone)."""
    base = key_base(rank)
    tails = {d: (digit_letter(d),) for d in set(map(base.__rmod__, keys))}
    letters: dict[int, tuple[int, ...]] = {0: ()}
    words = {}
    for k in keys:
        p = k // base
        head = letters.get(p)
        if head is None:
            head = key_word(p, rank).letters
        own = letters[k] = head + tails[k - p * base] if k else ()
        words[k] = _word(rank, own)
    return words


def key_texts(keys: list[int], rank: int) -> dict[int, str]:
    """``str`` of the word of each key of an ascending, prefix-closed key list:
    ``"e"`` for the root, else its parent's text plus one token."""
    base = key_base(rank)
    tokens = {d: letter_str(digit_letter(d)) for d in set(map(base.__rmod__, keys)) if d}
    texts = {}
    for k in keys:
        if k < base:
            texts[k] = tokens[k] if k else "e"
        else:
            p = k // base
            texts[k] = texts[p] + " " + tokens[k - p * base]
    return texts


def parse_key(text: str, rank: int) -> int:
    """The key of the word :func:`parse_word` reads from ``text``, with no
    ``Word`` built."""
    return _letters_key(_parse_letters(text, rank), rank)


def text_keys(texts: Iterable[str], rank: int) -> Iterator[int]:
    """The key :func:`parse_key` reads from each text, yielded in order.

    A text that is an earlier text, one space and one generator token takes
    its key from that text's, ``parent * B + digit``, unless the token
    cancels the parent's last letter.  Every text :func:`key_texts` lists
    after its parent is read so.  Every other text (``"e"``, a child listed
    before its parent, other whitespace, a cancelling or bad token, any
    text at rank < 1) goes through :func:`parse_key`, so the keys, and the
    first error, are those of :func:`parse_key` over the texts in order.
    Only texts of nonzero key are kept as parents: ``"e g0"`` is no word.
    """
    base = key_base(rank)
    letters = _token_table(rank)
    known: dict[str, int] = {}
    for text in texts:
        head, space, token = text.rpartition(" ")
        parent = known.get(head) if space else 0
        try:
            digit = letter_digit(letters[token])
        except InvalidGeneratorError:
            digit = 0  # no letter's digit
        if parent is None or not digit or digit == inverse_digit(parent % base):
            k = parse_key(text, rank)
        else:
            k = parent * base + digit
        if k:
            known[text] = k
        yield k
