"""Synthetic metagenome generation with planted ground truth.

The paper evaluates on 160K/22K ORFs sampled from GOS clusters — data we
cannot redistribute.  This module builds the closest synthetic equivalent:

* **Families** are planted by drawing a random ancestral protein and
  deriving members through point substitutions and short indels calibrated
  to a target residue identity, so members satisfy the paper's *overlap*
  definition (Definition 2: >=30% similarity over >=80% of the longer
  sequence) and form one connected component per family.
* **Domain families** (for the domain-based B_m reduction) share a few
  conserved exact blocks embedded in otherwise unrelated linkers — the
  CRAL/TRIO-style signature of Figure 1.
* **Redundant copies** are >=95%-length substrings of existing members with
  <=2% mutations, i.e. exactly the sequences Definition 1's containment
  test must remove.
* **Noise singletons** are unrelated random sequences.
* Family sizes follow a truncated Zipf law, reproducing the skewed
  dense-subgraph size distribution of Figure 5.

Every sequence carries its planted family in the returned truth table, so
quality metrics (PR/SE/OQ/CC, eqs. 1-4) can be evaluated against a known
benchmark exactly as the paper evaluates against the GOS clustering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sequence.alphabet import AMINO_ACIDS, ALPHABET_SIZE, decode
from repro.sequence.record import SequenceRecord, SequenceSet
from repro.util.rng import make_rng

#: Marginal amino-acid frequencies (approximate UniProt background); used
#: so random proteins have realistic composition rather than uniform.
_BACKGROUND = np.array(
    [
        0.0826,  # A
        0.0553,  # R
        0.0406,  # N
        0.0546,  # D
        0.0137,  # C
        0.0393,  # Q
        0.0674,  # E
        0.0708,  # G
        0.0227,  # H
        0.0593,  # I
        0.0965,  # L
        0.0582,  # K
        0.0241,  # M
        0.0386,  # F
        0.0472,  # P
        0.0660,  # S
        0.0535,  # T
        0.0110,  # W
        0.0292,  # Y
        0.0687,  # V
    ]
)
_BACKGROUND = _BACKGROUND / _BACKGROUND.sum()


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of one planted family."""

    family_id: int
    size: int
    ancestral_length: int
    identity: float  # expected residue identity of a member vs the ancestor
    n_domains: int = 0  # >0 => domain-style family (conserved blocks only)
    domain_length: int = 30

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"family size must be >=1, got {self.size}")
        if not 0.0 < self.identity <= 1.0:
            raise ValueError(f"identity must be in (0, 1], got {self.identity}")
        if self.ancestral_length < 10:
            raise ValueError("ancestral_length must be >= 10")


@dataclass(frozen=True)
class MetagenomeSpec:
    """Parameters of a whole synthetic data set.

    Defaults approximate the paper's 160K sample scaled down: mean length
    163 residues, hundreds of families with Zipf(1.6)-distributed sizes.
    """

    n_families: int = 50
    mean_family_size: int = 20
    zipf_exponent: float = 1.6
    max_family_size: int = 2000
    mean_length: int = 163
    length_stddev: int = 40
    min_length: int = 40
    identity_low: float = 0.55
    identity_high: float = 0.90
    redundant_fraction: float = 0.10
    noise_fraction: float = 0.05
    domain_family_fraction: float = 0.0
    fragment_fraction: float = 0.15
    fragment_min_coverage: float = 0.85
    subfamily_size: int | None = None
    subfamily_identity: float = 0.75
    seed: int = 2008

    def __post_init__(self) -> None:
        if self.n_families < 1:
            raise ValueError("need at least one family")
        for name in ("redundant_fraction", "noise_fraction", "domain_family_fraction",
                     "fragment_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.subfamily_size is not None and self.subfamily_size < 2:
            raise ValueError("subfamily_size must be >= 2 when set")
        if not 0.0 < self.subfamily_identity <= 1.0:
            raise ValueError("subfamily_identity must be in (0, 1]")
        if not 0.0 < self.identity_low <= self.identity_high <= 1.0:
            raise ValueError("require 0 < identity_low <= identity_high <= 1")
        if self.min_length < 10:
            raise ValueError("min_length must be >= 10")


@dataclass
class SyntheticMetagenome:
    """Generated data set plus the planted truth.

    Attributes
    ----------
    sequences:
        All generated records (family members, redundant copies, noise).
    truth:
        Maps sequence id -> planted family id; noise sequences map to -1.
    redundant_of:
        Maps a planted-redundant sequence id to the id of the member that
        contains it (what the RR phase should discover).
    families:
        The specs used for each family.
    spec:
        The generating :class:`MetagenomeSpec`.
    """

    sequences: SequenceSet
    truth: dict[str, int]
    redundant_of: dict[str, str]
    families: list[FamilySpec]
    spec: MetagenomeSpec

    def truth_clusters(self) -> dict[int, list[str]]:
        """Planted clustering as family_id -> member ids (noise excluded)."""
        clusters: dict[int, list[str]] = {}
        for seq_id, fam in self.truth.items():
            if fam >= 0:
                clusters.setdefault(fam, []).append(seq_id)
        return clusters


def _random_protein(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.choice(ALPHABET_SIZE, size=length, p=_BACKGROUND).astype(np.uint8)


def _mutate(
    rng: np.random.Generator,
    ancestor: np.ndarray,
    identity: float,
    *,
    indel_rate: float = 0.01,
) -> np.ndarray:
    """Derive a family member from ``ancestor`` at the target identity.

    Point substitutions are applied at rate ``1 - identity``; short indels
    (1-3 residues) at ``indel_rate`` per site perturb lengths the way real
    homologs differ.
    """
    seq = ancestor.copy()
    n = len(seq)
    sub_rate = 1.0 - identity
    n_subs = rng.binomial(n, sub_rate)
    if n_subs:
        positions = rng.choice(n, size=n_subs, replace=False)
        # Substitute with a *different* residue: draw an offset 1..19.
        offsets = rng.integers(1, ALPHABET_SIZE, size=n_subs).astype(np.uint8)
        seq[positions] = (seq[positions] + offsets) % ALPHABET_SIZE
    # Indels.
    n_indels = rng.binomial(n, indel_rate)
    out = seq
    for _ in range(n_indels):
        size = int(rng.integers(1, 4))
        pos = int(rng.integers(0, len(out)))
        if rng.random() < 0.5 and len(out) > size + 10:
            out = np.concatenate([out[:pos], out[pos + size :]])
        else:
            insert = _random_protein(rng, size)
            out = np.concatenate([out[:pos], insert, out[pos:]])
    return out


def _make_domain_member(
    rng: np.random.Generator,
    domains: list[np.ndarray],
    identity: float,
    total_length: int,
) -> np.ndarray:
    """Member of a domain family: conserved blocks joined by random linkers.

    The first domain is kept exactly conserved (an anchor motif, like a
    catalytic site) so every member shares at least one long exact word;
    the rest mutate at high (>= 98%) conservation.
    """
    mutated = [domains[0].copy()]
    mutated += [
        _mutate(rng, d, max(identity, 0.98), indel_rate=0.0) for d in domains[1:]
    ]
    dom_total = sum(len(d) for d in mutated)
    linker_total = max(total_length - dom_total, 4 * (len(domains) + 1))
    cuts = np.sort(rng.integers(0, linker_total + 1, size=len(domains)))
    pieces: list[np.ndarray] = []
    prev = 0
    for block, cut in zip(mutated, cuts):
        pieces.append(_random_protein(rng, int(cut - prev)))
        pieces.append(block)
        prev = int(cut)
    pieces.append(_random_protein(rng, int(linker_total - prev)))
    return np.concatenate(pieces)


def _zipf_sizes(rng: np.random.Generator, spec: MetagenomeSpec) -> list[int]:
    """Draw family sizes from a truncated Zipf calibrated to the mean."""
    raw = rng.zipf(spec.zipf_exponent, size=spec.n_families).astype(np.int64)
    raw = np.minimum(raw, spec.max_family_size)
    # Rescale so the average is ~mean_family_size while keeping skew;
    # clip again afterwards so the cap also bounds the scaled sizes.
    scale = spec.mean_family_size / max(raw.mean(), 1.0)
    sizes = np.clip((raw * scale).astype(np.int64), 2, spec.max_family_size)
    return [int(s) for s in sizes]


def generate_metagenome(spec: MetagenomeSpec) -> SyntheticMetagenome:
    """Generate a synthetic data set according to ``spec``.

    Deterministic in ``spec.seed``; all sub-streams are derived via
    :func:`repro.util.rng.derive_seed` so adding one more family does not
    reshuffle the others.
    """
    layout_rng = make_rng(spec.seed, "layout")
    sizes = _zipf_sizes(layout_rng, spec)
    n_domain_families = int(round(spec.domain_family_fraction * spec.n_families))

    records = SequenceSet()
    truth: dict[str, int] = {}
    redundant_of: dict[str, str] = {}
    families: list[FamilySpec] = []

    for fam_id, size in enumerate(sizes):
        fam_rng = make_rng(spec.seed, "family", fam_id)
        length = int(
            np.clip(
                fam_rng.normal(spec.mean_length, spec.length_stddev),
                spec.min_length,
                spec.mean_length + 6 * spec.length_stddev,
            )
        )
        identity = float(fam_rng.uniform(spec.identity_low, spec.identity_high))
        is_domain = fam_id < n_domain_families
        fam_spec = FamilySpec(
            family_id=fam_id,
            size=size,
            ancestral_length=length,
            identity=identity,
            n_domains=3 if is_domain else 0,
        )
        families.append(fam_spec)

        if is_domain:
            domains = [
                _random_protein(fam_rng, fam_spec.domain_length)
                for _ in range(fam_spec.n_domains)
            ]
            members = [
                _make_domain_member(fam_rng, domains, identity, length)
                for _ in range(size)
            ]
        elif spec.subfamily_size is not None and size > spec.subfamily_size:
            # Two-level ancestry: a large "cluster" (like a GOS cluster)
            # splits into subfamilies — members are tightly similar within
            # a subfamily and loosely similar across subfamilies, so the
            # connected component stays whole while dense subgraphs
            # recover the subfamilies (the paper's fragmentation).
            ancestor = _random_protein(fam_rng, length)
            members = []
            remaining = size
            while remaining > 0:
                # Log-normal subfamily sizes around the target: real protein
                # clusters fragment into subfamilies of very uneven size
                # (the skew behind the paper's Figure 5 histogram).
                drawn = int(round(spec.subfamily_size * fam_rng.lognormal(0.0, 0.5)))
                chunk = int(min(max(drawn, 3), remaining))
                if remaining - chunk < 3:
                    chunk = remaining
                sub_ancestor = _mutate(
                    fam_rng, ancestor, spec.subfamily_identity, indel_rate=0.002
                )
                members.extend(
                    _mutate(fam_rng, sub_ancestor, identity) for _ in range(chunk)
                )
                remaining -= chunk
        else:
            ancestor = _random_protein(fam_rng, length)
            members = [_mutate(fam_rng, ancestor, identity) for _ in range(size)]

        for m, member in enumerate(members):
            # Optionally truncate into an ORF fragment, keeping enough
            # coverage that Definition 2's 80%-of-longer test still holds.
            if (
                spec.fragment_fraction
                and fam_rng.random() < spec.fragment_fraction
                and len(member) > spec.min_length * 2
            ):
                cov = fam_rng.uniform(spec.fragment_min_coverage, 0.98)
                keep = max(int(len(member) * cov), spec.min_length)
                start = int(fam_rng.integers(0, len(member) - keep + 1))
                member = member[start : start + keep]
            seq_id = f"F{fam_id:04d}_M{m:04d}"
            records.add(SequenceRecord(id=seq_id, residues=decode(member)))
            truth[seq_id] = fam_id

    # Redundant (contained) copies of randomly chosen members.
    n_base = len(records)
    n_redundant = int(round(spec.redundant_fraction * n_base))
    red_rng = make_rng(spec.seed, "redundant")
    base_ids = records.ids()
    for r in range(n_redundant):
        host_id = base_ids[int(red_rng.integers(0, n_base))]
        host = records.get(host_id).encoded
        keep = max(int(len(host) * red_rng.uniform(0.95, 1.0)), 10)
        start = int(red_rng.integers(0, len(host) - keep + 1))
        fragment = host[start : start + keep].copy()
        # <=2% point mutations: still passes the 95%-similarity containment test.
        n_subs = red_rng.binomial(len(fragment), 0.01)
        if n_subs:
            positions = red_rng.choice(len(fragment), size=n_subs, replace=False)
            offsets = red_rng.integers(1, ALPHABET_SIZE, size=n_subs).astype(np.uint8)
            fragment[positions] = (fragment[positions] + offsets) % ALPHABET_SIZE
        seq_id = f"R{r:05d}_{host_id}"
        records.add(SequenceRecord(id=seq_id, residues=decode(fragment)))
        truth[seq_id] = truth[host_id]
        redundant_of[seq_id] = host_id

    # Unrelated noise singletons.
    n_noise = int(round(spec.noise_fraction * n_base))
    noise_rng = make_rng(spec.seed, "noise")
    for k in range(n_noise):
        length = int(
            np.clip(
                noise_rng.normal(spec.mean_length, spec.length_stddev),
                spec.min_length,
                None,
            )
        )
        seq_id = f"N{k:05d}"
        records.add(SequenceRecord(id=seq_id, residues=decode(_random_protein(noise_rng, length))))
        truth[seq_id] = -1

    return SyntheticMetagenome(
        sequences=records,
        truth=truth,
        redundant_of=redundant_of,
        families=families,
        spec=spec,
    )
