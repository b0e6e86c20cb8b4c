"""Replica-based query-load diffusion.

P-Grid's structural replication means every member of a replica group can
answer reads for the group's path.  Routing alone does not exploit that:
the route cache pins each requester to the first member it reached, so a
hot key hammers one peer while its replicas idle.  Diffusion re-spreads
that query load *at the last hop*: once routing has discovered the
responsible group, the final hop is redirected to a chosen member —
uniformly at random (classic load spreading), to the member the *chooser*
has heard the smallest piggybacked queue-depth hint from
(``least-busy``, requires a :class:`~repro.load.shedding.HintRegistry` —
information a real peer can have), or to the member with the smallest
simulator-side queue backlog (``least-busy-oracle``, kept purely as the
upper-bound comparison baseline: no peer could know this).

Without a hint registry ``least-busy`` falls back to the oracle when a
load model is attached (as in PR 4, now with power-of-two sampling) and to
``random`` otherwise.

The hop count is unchanged — only the *target* of the existing last hop
moves — so diffusion trades no extra latency for its balancing, and with
``policy="none"`` the rewrite is the identity.  Benchmark E12 measures the
effect: the latency-vs-offered-load knee moves right with the replica
degree once diffusion is on, and E12d compares hint-steered against
oracle-steered spreading under overload.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.load.shedding import HintRegistry, pick_least_hinted

if TYPE_CHECKING:
    from repro.load.model import LoadModel
    from repro.pgrid.peer import PGridPeer

#: Recognized diffusion policies.
POLICIES = ("none", "random", "least-busy", "least-busy-oracle")


def choose_replica(
    destination: "PGridPeer",
    policy: str = "none",
    rng: random.Random | None = None,
    load: "LoadModel | None" = None,
    now: float = 0.0,
    hints: HintRegistry | None = None,
    observer: str | None = None,
) -> "PGridPeer":
    """Pick the replica-group member that should serve this read.

    ``observer`` names the peer whose hint table steers a ``least-busy``
    choice — normally the operation's initiator, who accumulates depth
    hints from the replies it receives.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown diffusion policy {policy!r} (use one of {POLICIES})")
    if policy == "none":
        return destination
    from repro.pgrid.replication import online_group  # deferred: pgrid imports load

    members = online_group(destination)
    if len(members) == 1:
        return destination
    return pick_member(
        members, policy, rng=rng, load=load, now=now, hints=hints, observer=observer
    )


def pick_member(
    members: list["PGridPeer"],
    policy: str,
    rng: random.Random | None = None,
    load: "LoadModel | None" = None,
    now: float = 0.0,
    hints: HintRegistry | None = None,
    observer: str | None = None,
) -> "PGridPeer":
    """Rank ``members`` under ``policy`` and return the chosen one.

    Shared by last-hop diffusion and by the retry-another-replica path after
    an admission reject (which excludes already-tried members first).

    Both least-busy variants use *power-of-two-choices* sampling on groups
    larger than two: two members are drawn at random and the less loaded of
    the pair wins.  Greedily sending everything to the single minimum herds
    — the load signal is stale by at least the decision-to-delivery delay
    (hints are stale by a full round trip), so consecutive choices pile onto
    the same member until the signal catches up; sampling two keeps most of
    the steering benefit while spreading the herd (Mitzenmacher's "power of
    two choices" argument, visible in benchmark E12d).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown diffusion policy {policy!r} (use one of {POLICIES})")
    if not members:
        raise ValueError("need at least one member to pick from")
    if len(members) == 1:
        return members[0]
    rng = rng or random.Random()
    if policy in ("least-busy", "least-busy-oracle"):
        use_hints = policy == "least-busy" and hints is not None and observer is not None
        if use_hints or load is not None:
            sample = rng.sample(members, 2) if len(members) > 2 else members
            if use_hints:
                by_id = {p.node_id: p for p in sample}
                ids = [p.node_id for p in sample]
                # now=0.0 means "no decision clock": decay against the
                # registry's latest observation instead.
                chosen = pick_least_hinted(
                    ids, observer, hints, rng, now=now if now > 0.0 else None
                )
                return by_id[chosen]
            # The oracle, or hint-less least-busy (oracle fallback).
            return min(sample, key=lambda p: (load.backlog(p.node_id, now), p.node_id))
    # "random", or a least-busy policy with no load information to act on.
    return rng.choice(members)


def diffuse_route(
    destination: "PGridPeer",
    hops: list[tuple[str, str]],
    policy: str = "none",
    rng: random.Random | None = None,
    load: "LoadModel | None" = None,
    now: float = 0.0,
    hints: HintRegistry | None = None,
    observer: str | None = None,
) -> tuple["PGridPeer", list[tuple[str, str]]]:
    """Rewrite a discovered route's last hop to the chosen group member.

    With no hops the requester is itself a member of the responsible group
    and serves the read locally for free — diffusing away would *add* a hop,
    so the route is returned unchanged.
    """
    if policy == "none" or not hops:
        return destination, hops
    target = choose_replica(
        destination, policy=policy, rng=rng, load=load, now=now, hints=hints, observer=observer
    )
    if target is destination:
        return destination, hops
    return target, hops[:-1] + [(hops[-1][0], target.node_id)]
