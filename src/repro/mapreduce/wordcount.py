"""WordCount application and the random-words corpus generator.

The paper's prototype evaluation runs "a WordCount benchmark [...] The input
dataset is a 500 MB file containing random words that are not causing hash
collisions" with words of at most 16 characters. :func:`generate_corpus`
produces an equivalent synthetic corpus, scaled down by default, with knobs for
the word-frequency distribution (uniform or Zipf) and for guaranteeing that no
two words of the same reducer partition collide in the switch register hash.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.aggregation import hash_key
from repro.core.config import DaietConfig
from repro.core.errors import JobError
from repro.mapreduce.job import JobSpec
from repro.mapreduce.partitioner import HashPartitioner

#: Words per generated line of text (the map input records are lines).
WORDS_PER_LINE = 10


def wordcount_map(record: str) -> Iterator[tuple[str, int]]:
    """The WordCount map function: one ``(word, 1)`` pair per occurrence."""
    for word in record.split():
        yield word, 1


def wordcount_reduce(key: str, values: list[int]) -> int:
    """The WordCount reduce function: sum of the occurrence counts."""
    return sum(values)


def make_wordcount_job(
    num_mappers: int = 24,
    num_reducers: int = 12,
    daiet: DaietConfig | None = None,
) -> JobSpec:
    """A ready-to-run WordCount job specification."""
    return JobSpec(
        name="wordcount",
        map_function=wordcount_map,
        reduce_function=wordcount_reduce,
        aggregation="sum",
        num_mappers=num_mappers,
        num_reducers=num_reducers,
        daiet=daiet or DaietConfig(),
    )


@dataclass
class Corpus:
    """A generated corpus: input lines plus the vocabulary that produced them."""

    lines: list[str]
    vocabulary: list[str]
    total_words: int
    seed: int
    distribution: str

    def splits(self, num_splits: int) -> list[list[str]]:
        """Partition the lines into ``num_splits`` round-robin input splits."""
        if num_splits <= 0:
            raise JobError("num_splits must be positive")
        splits: list[list[str]] = [[] for _ in range(num_splits)]
        for i, line in enumerate(self.lines):
            splits[i % num_splits].append(line)
        return splits

    def word_counts(self) -> dict[str, int]:
        """Ground-truth word counts (used to validate job outputs)."""
        counts: dict[str, int] = {}
        for line in self.lines:
            for word in line.split():
                counts[word] = counts.get(word, 0) + 1
        return counts


@dataclass
class CorpusSpec:
    """Parameters of the synthetic corpus generator."""

    total_words: int = 200_000
    vocabulary_size: int = 24_000
    min_word_length: int = 4
    max_word_length: int = 16
    seed: int = 2017
    #: "uniform" draws every word with equal probability; "zipf" applies a
    #: power-law frequency distribution with exponent ``zipf_exponent``.
    distribution: str = "uniform"
    zipf_exponent: float = 1.1
    #: When true, the vocabulary is built so that no two words mapping to the
    #: same reducer partition share a register-hash slot (the paper's dataset
    #: property: "random words that are not causing hash collisions").
    avoid_register_collisions: bool = True
    num_partitions: int = 12
    register_slots: int = field(default_factory=lambda: DaietConfig().register_slots)

    def __post_init__(self) -> None:
        if self.total_words <= 0:
            raise JobError("total_words must be positive")
        if self.vocabulary_size <= 0:
            raise JobError("vocabulary_size must be positive")
        if self.vocabulary_size > self.total_words:
            raise JobError("vocabulary_size cannot exceed total_words")
        if not 1 <= self.min_word_length <= self.max_word_length:
            raise JobError("invalid word length range")
        if self.max_word_length > 16:
            raise JobError(
                "the DAIET prototype serializes 16-byte keys; max_word_length > 16 "
                "would be rejected at packetization time"
            )
        if self.distribution not in ("uniform", "zipf"):
            raise JobError(f"unknown distribution {self.distribution!r}")
        if self.avoid_register_collisions:
            per_partition = self.vocabulary_size / self.num_partitions
            if per_partition > self.register_slots:
                raise JobError(
                    "cannot avoid register collisions: more unique words per "
                    "partition than register slots"
                )


def generate_vocabulary(spec: CorpusSpec) -> list[str]:
    """Generate the vocabulary, optionally avoiding per-partition hash collisions."""
    rng = random.Random(spec.seed)
    partitioner = HashPartitioner(spec.num_partitions)
    used_slots: dict[int, set[int]] = {p: set() for p in range(spec.num_partitions)}
    vocabulary: list[str] = []
    seen: set[str] = set()
    attempts = 0
    max_attempts = spec.vocabulary_size * 200
    while len(vocabulary) < spec.vocabulary_size:
        attempts += 1
        if attempts > max_attempts:
            raise JobError(
                "vocabulary generation did not converge; relax "
                "avoid_register_collisions or enlarge register_slots"
            )
        length = rng.randint(spec.min_word_length, spec.max_word_length)
        word = "".join(rng.choices(string.ascii_lowercase, k=length))
        if word in seen:
            continue
        if spec.avoid_register_collisions:
            partition = partitioner(word)
            slot = hash_key(word, spec.register_slots)
            if slot in used_slots[partition]:
                continue
            used_slots[partition].add(slot)
        seen.add(word)
        vocabulary.append(word)
    return vocabulary


def generate_corpus(spec: CorpusSpec | None = None, **overrides: object) -> Corpus:
    """Generate a synthetic random-words corpus.

    Keyword overrides are applied on top of the default :class:`CorpusSpec`,
    e.g. ``generate_corpus(total_words=50_000, vocabulary_size=6_000)``.
    """
    if spec is None:
        spec = CorpusSpec(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise JobError("pass either a CorpusSpec or keyword overrides, not both")
    vocabulary = generate_vocabulary(spec)
    rng = random.Random(spec.seed + 1)

    if spec.distribution == "zipf":
        weights = [1.0 / (rank**spec.zipf_exponent) for rank in range(1, len(vocabulary) + 1)]
    else:
        weights = None

    words: list[str] = []
    # Guarantee every vocabulary word appears at least once, then fill the rest
    # according to the requested distribution.
    words.extend(vocabulary)
    remaining = spec.total_words - len(vocabulary)
    if remaining > 0:
        words.extend(rng.choices(vocabulary, weights=weights, k=remaining))
    rng.shuffle(words)

    lines = [
        " ".join(words[i : i + WORDS_PER_LINE])
        for i in range(0, len(words), WORDS_PER_LINE)
    ]
    return Corpus(
        lines=lines,
        vocabulary=vocabulary,
        total_words=len(words),
        seed=spec.seed,
        distribution=spec.distribution,
    )
