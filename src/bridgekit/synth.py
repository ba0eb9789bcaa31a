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
pinned byte for byte (tests/test_synth.py). Generation is linear in
document length: a token's head is drawn by index, without a list of the
other tokens, and an anaphor's antecedents are looked for only among the
mentions that start within the distance limit before it.
"""
from __future__ import annotations

import random
from bisect import bisect_left

from .harmonize import GUM_ENTITY_MAP
from .ingest import find_head
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
        mentions.append(
            Mention(
                id=f"m{i}",
                spans=spans,
                head_index=find_head(tokens, spans),
                entity_type_original=etype,
                entity_type_unified=UNRESOLVED,
                infstat=rng.choice(("new", "giv", "acc")) if gum else "none",
                definiteness=rng.choice(("def", "ind")) if gum else "none",
                chain_id=rng.choice(chain_pool) if rng.random() < 0.3 else None,
            )
        )

    links = []
    if len(mentions) >= 2:
        used_anaphors = set()
        for m in mentions:
            if rng.random() > 0.4 or m.id in used_anaphors:
                continue
            others = [x.id for x in mentions if x.id != m.id]
            if gum or rng.random() < 0.7:
                antecedents = (rng.choice(others),)
            else:
                antecedents = tuple(rng.sample(others, min(len(others), rng.randint(2, 3))))
            links.append(
                BridgingLink(
                    anaphor_id=m.id,
                    antecedent_ids=antecedents,
                    subtype=rng.choice((None, "element", "poss", "subset-inv")),
                )
            )
            used_anaphors.add(m.id)

    doc = Document(
        doc_id=f"rand_{flavor}_{index}",
        genre=rng.choice(("news", "fiction", "")),
        schema=flavor,
        tokens=tokens,
        mentions=tuple(mentions),
        bridging=tuple(links),
    )
    validate_document(doc)
    return doc


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
    from .harmonize import ENTITY_MAPS

    entity_map = ENTITY_MAPS[schema]
    if label_pool is None:
        label_pool = ARRAU_POOL if schema == "arrau_like" else _PLANT_LABELS
    rng = random.Random(seed)
    docs = []
    n_mentions = n_chains * chain_size + n_free
    for d in range(1, n_docs + 1):
        positions = [1 + stride * k for k in range(n_mentions)]
        n_tokens = positions[-1] + 1
        tokens = list(_random_tokens(rng, n_tokens))
        for pos in positions:
            tokens[pos - 1] = _token(rng, pos, "NN", 0 if pos == 1 else 1)

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
        for k in range(n_mentions):
            chain_id, label = assignment[k]
            pos = positions[k]
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
            mentions.append(
                Mention(
                    id=f"m{k + 1}",
                    spans=((pos, pos),),
                    head_index=pos,
                    entity_type_original=label,
                    entity_type_unified=UNRESOLVED,
                    infstat=infstat,
                    definiteness=definite,
                    chain_id=chain_id,
                )
            )
        tokens = tuple(tokens)

        unified = {m.id: entity_map[m.entity_type_original] for m in mentions}
        links = []
        subtype_i = 0
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
                links.append(
                    BridgingLink(
                        anaphor_id=ana.id,
                        antecedent_ids=(ante.id,),
                        subtype=_SUBTYPE_CYCLE[subtype_i % len(_SUBTYPE_CYCLE)],
                    )
                )
                subtype_i += 1

        doc = Document(
            doc_id=f"plant_{d}",
            genre="synth",
            schema=schema,
            tokens=tokens,
            mentions=tuple(mentions),
            bridging=tuple(links),
        )
        validate_document(doc)
        docs.append(doc)
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
    n_mentions = 30
    for d in range(1, n_docs + 1):
        positions = [1 + 2 * k for k in range(n_mentions)]
        n_tokens = positions[-1] + 1
        tokens = list(_random_tokens(rng, n_tokens))
        pronoun_slots = {12, 13, 14}
        for k, pos in enumerate(positions):
            xpos = "PRP" if k in pronoun_slots else "NN"
            tokens[pos - 1] = _token(rng, pos, xpos, 0 if pos == 1 else 1)
        tokens = tuple(tokens)

        def chain_for(slot: int) -> str | None:
            if slot <= 11:
                return f"c{d}_{slot // 3 + 1}"
            if slot in pronoun_slots:
                return f"c{d}_5"
            return None

        mentions = []
        for k in range(n_mentions):
            pos = positions[k]
            mentions.append(
                Mention(
                    id=f"m{k + 1}",
                    spans=((pos, pos),),
                    head_index=pos,
                    entity_type_original=labels[(d + k) % len(labels)],
                    entity_type_unified=UNRESOLVED,
                    infstat="new" if chain_for(k) is None else "none",
                    definiteness="def",
                    chain_id=chain_for(k),
                )
            )

        # anaphor slots 20,22,24,26,28 bridge back 5 slots (distance 10)
        links = []
        for i in range(links_per_doc):
            ana_slot = 20 + 2 * i
            links.append(
                BridgingLink(
                    anaphor_id=f"m{ana_slot + 1}",
                    antecedent_ids=(f"m{ana_slot - 5 + 1}",),
                    subtype=None,
                )
            )

        doc = Document(
            doc_id=f"bal_{d}",
            genre="synth",
            schema="gum_like",
            tokens=tokens,
            mentions=tuple(mentions),
            bridging=tuple(links),
        )
        validate_document(doc)
        docs.append(doc)
    return docs


# ---------------------------------------------------------------------------
# standoff fixture writing


def standoff_text(docs: list[Document]) -> str:
    """Render documents as standoff-dialect text (for building fixtures).

    Token fields are space-separated in the payload, so forms and lemmas
    must not contain spaces; infstat and definiteness are not representable
    in this dialect and are dropped.
    """
    lines = []
    for doc in docs:
        genre = doc.genre if doc.genre else "_"
        lines.append(f"DOC\t{doc.doc_id} {genre}")
        for t in doc.tokens:
            lines.append(f"TOK\t{t.index} {t.form} {t.lemma} {t.xpos} {t.number} {t.deprel} {t.head}")
        for m in doc.mentions:
            spans = ",".join(f"{s}-{e}" for s, e in m.spans)
            chain = m.chain_id if m.chain_id is not None else "_"
            lines.append(f"MEN\t{m.id} {spans} {m.entity_type_original} {chain}")
        for link in doc.bridging:
            antes = "+".join(link.antecedent_ids)
            subtype = link.subtype if link.subtype is not None else "_"
            lines.append(f"BRG\t{link.anaphor_id} {antes} {subtype}")
    return "".join(line + "\n" for line in lines)
