"""Deterministic synthetic-corpus generators for tests and experiments.

Three families:

- random_document: randomized but valid documents in any schema flavor,
  used for round-trip and invariance testing.
- planted_rule_corpus: a corpus whose bridging links follow an exact
  feature rule (definite anaphor, same unified entity type, start distance
  under a limit), so a classifier trained on it has a known target and
  feature-importance expectations are checkable.
- balanced_sampling_corpus: a corpus with an exact number of bridging
  links, abundant negatives, pronoun mentions, and out-of-range pairs, for
  exercising the balanced sampler's filters.

All generators are pure functions of their seed, and their output is
pinned byte for byte (tests/test_synth.py). They share one document tail,
which builds the `Document` and validates it, and every record is built by
its maker (`records.record_maker`). Generation is linear in
document length: a token's head is drawn by index, without a list of the
other tokens, and an anaphor's antecedents are looked for only among the
mentions that start within the distance limit before it. Every dialect
writer is in `ingest`; `standoff_text` stays because the benchmark uses it.
"""
from __future__ import annotations

import random
from bisect import bisect_left

from .harmonize import ENTITY_MAPS, GUM_ENTITY_MAP
from .ingest import emit_standoff, find_head
from .model import BridgingLink, Document, Mention, Token, UNRESOLVED, validate_document
from .records import record_maker

_WORDS = (
    "house", "door", "river", "stone", "window", "garden", "market", "treaty",
    "signal", "driver", "letter", "meeting", "bridge", "engine", "valley",
    "harbor", "singer", "record", "cloud", "forest", "answer", "packet",
    "statue", "corner", "ticket", "island", "method", "butter", "candle",
    "mirror",
)

_FILLER_XPOS = ("VBD", "IN", "DT", "JJ", "RB")
_RANDOM_XPOS = _FILLER_XPOS + ("NN", "NNS", "NNP")
_DEPRELS = ("nsubj", "obj", "nmod", "obl")
_SUBTYPE_CYCLE = ("element", "poss", "subset", None, "other-inv", None)

# Original labels whose unified images collide (object and plant both map to
# concrete), so type-equality rules exercise the mapping.
_PLANT_LABELS = ("person", "object", "plant", "place", "abstract")
# Original labels of the arrau-like entity map: the default planted pool for
# that schema.
ARRAU_POOL = ("person", "concrete", "space", "abstract", "plan")

_make_token = record_maker(Token)
_make_mention = record_maker(Mention)
_make_link = record_maker(BridgingLink)
_make_document = record_maker(Document)


def _token(rng: random.Random, index: int, xpos: str, head: int) -> Token:
    word = rng.choice(_WORDS)
    number = rng.choice(("sing", "plur"))
    return _make_token(index, word, word, xpos, number, rng.choice(_DEPRELS), head)


def _random_tokens(rng: random.Random, n: int) -> tuple[Token, ...]:
    tokens = []
    for i in range(1, n + 1):
        if i == 1:
            head = 0
        else:
            # the k-th of the heads 0..n other than i, drawn from the stream
            # as a choice from a list of those n heads would draw it
            k = rng.choice(range(n))
            head = k + (k >= i)
        tokens.append(_token(rng, i, rng.choice(_RANDOM_XPOS), head))
    return tuple(tokens)


def _slot_tokens(rng: random.Random, positions: list[int],
                 pronoun_slots: frozenset[int] = frozenset()) -> list[Token]:
    """Random tokens up to one past the last mention slot, with a noun head,
    or a pronoun at the k-th slot for k in pronoun_slots, headed by token 1
    at each slot."""
    tokens = list(_random_tokens(rng, positions[-1] + 1))
    for k, pos in enumerate(positions):
        xpos = "PRP" if k in pronoun_slots else "NN"
        tokens[pos - 1] = _token(rng, pos, xpos, 0 if pos == 1 else 1)
    return tokens


def _slot_mention(k: int, pos: int, label: str, infstat: str, definiteness: str,
                  chain_id: str | None) -> Mention:
    """The k-th mention, one token long, at token pos."""
    return _make_mention(f"m{k + 1}", ((pos, pos),), pos, label, UNRESOLVED,
                         infstat, definiteness, chain_id)


def _document(doc_id: str, genre: str, schema: str, tokens, mentions, links) -> Document:
    """The document of these fields, validated."""
    doc = _make_document(doc_id, genre, schema, tuple(tokens), tuple(mentions), tuple(links))
    validate_document(doc)
    return doc


def _nested_or_disjoint(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return (
        a[1] < b[0]
        or b[1] < a[0]
        or (a[0] <= b[0] and b[1] <= a[1])
        or (b[0] <= a[0] and a[1] <= b[1])
    )


def random_document(rng: random.Random, index: int, flavor: str = "canonical") -> Document:
    """One randomized valid document.

    flavor gum_like keeps to single continuous nested-or-disjoint spans,
    annotated infstat/definiteness, one single-antecedent link per anaphor.
    flavor arrau_like allows discontinuous mentions and split antecedents
    with unannotated infstat/definiteness. flavor canonical mixes freely.
    """
    n = rng.randint(6, 30)
    tokens = _random_tokens(rng, n)
    gum = flavor == "gum_like"

    spans_list: list[tuple[tuple[int, int], ...]] = []
    for _ in range(rng.randint(0, min(8, n))):
        if gum or rng.random() < 0.7:
            start = rng.randint(1, n)
            end = min(n, start + rng.randint(0, 3))
            candidate = ((start, end),)
            if gum and not all(
                _nested_or_disjoint(candidate[0], existing[0]) for existing in spans_list
            ):
                continue
        else:
            # discontinuous: two or three separated chunks
            points = sorted(rng.sample(range(1, n + 1), min(n, rng.randint(2, 3))))
            candidate = tuple((p, p) for p in points)
        spans_list.append(candidate)

    chain_pool = ("c1", "c2", "c3")
    mentions = []
    for i, spans in enumerate(spans_list, start=1):
        etype = rng.choice(list(GUM_ENTITY_MAP) + ["undersp-onto"])
        mentions.append(_make_mention(
            f"m{i}", spans, find_head(tokens, spans), etype, UNRESOLVED,
            rng.choice(("new", "giv", "acc")) if gum else "none",
            rng.choice(("def", "ind")) if gum else "none",
            rng.choice(chain_pool) if rng.random() < 0.3 else None,
        ))

    links = []
    if len(mentions) >= 2:
        for m in mentions:
            if rng.random() > 0.4:
                continue
            others = [x.id for x in mentions if x.id != m.id]
            if gum or rng.random() < 0.7:
                antecedents = (rng.choice(others),)
            else:
                antecedents = tuple(rng.sample(others, min(len(others), rng.randint(2, 3))))
            subtype = rng.choice((None, "element", "poss", "subset-inv"))
            links.append(_make_link(m.id, antecedents, subtype))

    return _document(f"rand_{flavor}_{index}", rng.choice(("news", "fiction", "")), flavor,
                     tokens, mentions, links)


def random_corpus(seed: int, n_docs: int, flavor: str = "canonical") -> list[Document]:
    rng = random.Random(seed)
    return [random_document(rng, i + 1, flavor) for i in range(n_docs)]


# ---------------------------------------------------------------------------
# planted rule


def planted_rule_corpus(
    seed: int,
    n_docs: int = 24,
    n_chains: int = 4,
    chain_size: int = 4,
    n_free: int = 12,
    stride: int = 5,
    distance_limit: int = 40,
    definite_prob: float = 0.7,
    single_link_per_anaphor: bool = False,
    label_pool: tuple[str, ...] | None = None,
    schema: str = "gum_like",
    surface_definiteness: bool = False,
) -> list[Document]:
    """Corpus where bridging holds exactly when the anaphor is definite,
    both mentions share a unified entity type, and the start distance is
    strictly below distance_limit.

    Chain members are all indefinite (so no coreference pair triggers the
    rule) and share one entity label per chain. Free mentions are definite
    with probability definite_prob and carry no chain. Every rule-satisfying
    ordered pair receives its own single-antecedent link, so pair labels
    reproduce the rule exactly; single_link_per_anaphor keeps only the
    nearest antecedent per anaphor (for emitters that allow one link per
    anaphor, at the cost of rule exactness).

    label_pool must map under the schema's entity map; by default it is
    ARRAU_POOL for arrau_like and labels of the gum-like map otherwise. With
    surface_definiteness the definiteness annotation is also mirrored in
    the mention token's lemma ("the" for definite mentions), so dialects
    that drop the annotation still recover it heuristically.

    Head lemmas, deprels, and numbers are drawn independently of the rule,
    giving known-noise features.
    """
    entity_map = ENTITY_MAPS[schema]
    if label_pool is None:
        label_pool = ARRAU_POOL if schema == "arrau_like" else _PLANT_LABELS
    rng = random.Random(seed)
    docs = []
    n_mentions = n_chains * chain_size + n_free
    positions = [1 + stride * k for k in range(n_mentions)]
    for d in range(1, n_docs + 1):
        tokens = _slot_tokens(rng, positions)

        # chains occupy blocks of consecutive mention slots so coreference
        # pairs stay within the attested distance cap
        block_starts = [b * chain_size for b in range(n_mentions // chain_size)]
        rng.shuffle(block_starts)
        assignment: dict[int, tuple[str | None, str]] = {}
        for c, start in enumerate(block_starts[:n_chains]):
            label = rng.choice(label_pool)
            chain_id = f"c{d}_{c}"
            for slot in range(start, start + chain_size):
                assignment[slot] = (chain_id, label)
        for slot in range(n_mentions):
            if slot not in assignment:
                assignment[slot] = (None, rng.choice(label_pool))

        mentions = []
        for k, pos in enumerate(positions):
            chain_id, label = assignment[k]
            if chain_id is not None:
                definite = "ind"
                infstat = "none"
            else:
                definite = "def" if rng.random() < definite_prob else "ind"
                infstat = "new"
            if surface_definiteness and definite == "def":
                old = tokens[pos - 1]
                tokens[pos - 1] = _make_token(old.index, "the", "the", old.xpos,
                                              old.number, old.deprel, old.head)
            mentions.append(_slot_mention(k, pos, label, infstat, definite, chain_id))

        unified = {m.id: entity_map[m.entity_type_original] for m in mentions}
        links = []
        for j, ana in enumerate(mentions):
            if ana.definiteness != "def" or ana.chain_id is not None:
                continue
            # positions increase, so only mentions from the first one that
            # starts less than distance_limit before the anaphor can qualify
            first = bisect_left(positions, positions[j] - distance_limit + 1, 0, j)
            antes = [
                mentions[i] for i in range(first, j)
                if unified[mentions[i].id] == unified[ana.id]
                and 0 < positions[j] - positions[i] < distance_limit
            ]
            if single_link_per_anaphor and antes:
                antes = antes[-1:]
            for ante in antes:
                subtype = _SUBTYPE_CYCLE[len(links) % len(_SUBTYPE_CYCLE)]
                links.append(_make_link(ana.id, (ante.id,), subtype))

        docs.append(_document(f"plant_{d}", "synth", schema, tokens, mentions, links))
    return docs


# ---------------------------------------------------------------------------
# exact-count corpus for sampler tests


def balanced_sampling_corpus(seed: int, n_docs: int = 10, links_per_doc: int = 5) -> list[Document]:
    """Corpus with exactly n_docs * links_per_doc bridging links, abundant
    coreference and unrelated pairs, pronoun-headed mentions, and pairs
    beyond the attested distance cap.

    Every bridging link spans 10 tokens, so the corpus distance cap is 10.
    Chains c1..c4 hold three adjacent non-pronoun mentions each; chain c5
    holds one noun and two pronouns, whose anaphor-side pairs the sampler
    must reject.
    """
    rng = random.Random(seed)
    labels = list(GUM_ENTITY_MAP)
    docs = []
    positions = [1 + 2 * k for k in range(30)]
    pronoun_slots = frozenset({12, 13, 14})
    for d in range(1, n_docs + 1):
        tokens = _slot_tokens(rng, positions, pronoun_slots)

        mentions = []
        for k, pos in enumerate(positions):
            if k <= 11:
                chain_id = f"c{d}_{k // 3 + 1}"
            elif k in pronoun_slots:
                chain_id = f"c{d}_5"
            else:
                chain_id = None
            label = labels[(d + k) % len(labels)]
            infstat = "new" if chain_id is None else "none"
            mentions.append(_slot_mention(k, pos, label, infstat, "def", chain_id))

        # anaphor slots 20,22,24,26,28 bridge back 5 slots (distance 10)
        links = [
            _make_link(f"m{ana_slot + 1}", (f"m{ana_slot - 5 + 1}",), None)
            for ana_slot in range(20, 20 + 2 * links_per_doc, 2)
        ]
        docs.append(_document(f"bal_{d}", "synth", "gum_like", tokens, mentions, links))
    return docs


def standoff_text(docs: list[Document]) -> str:
    """Documents as standoff-dialect text: `ingest.emit_standoff` of each."""
    return b"".join(map(emit_standoff, docs)).decode("utf-8")
