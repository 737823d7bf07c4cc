"""Synchronous round-cost accounting.

The algorithms in this package never simulate messages; instead every
communication primitive they would run is charged to a RoundLedger under a
fixed, reproducible constant-factor rule:

  * a BFS to depth d costs exactly d rounds ("bfs");
  * an aggregation over Steiner trees of depth R with edge congestion L
    costs exactly R*L rounds ("steiner-aggregate");
  * leader election / min-id selection / canonical labeling within a
    component, using a tree of depth d, costs exactly 3*d rounds
    (tree build + converge-cast + broadcast; "leader-election").

Each of these is a textbook routine whose messages fit in O(log n) bits
(distances, counts, ids, layer sizes), which is why charging rounds without
materializing messages is faithful to the synchronous small-message model.
Sequential composition adds; independent per-component work composes by
maximum via merge_parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "RoundLedger",
    "charge_bfs",
    "charge_steiner_aggregate",
    "charge_leader_election",
    "merge_parallel",
]


@dataclass
class RoundLedger:
    """Accumulator of charged rounds with a labelled breakdown.

    total_rounds always equals the sum of breakdown entries and never
    decreases. A ledger has a single owner; concurrent branches use private
    ledgers and combine them with merge_parallel.
    """

    total_rounds: int = 0
    breakdown: list[tuple[str, int]] = field(default_factory=list)

    def add(self, label: str, rounds: int) -> None:
        rounds = int(rounds)
        if rounds < 0:
            raise ValueError("cannot charge negative rounds")
        self.breakdown.append((label, rounds))
        self.total_rounds += rounds

    def extend(self, other: "RoundLedger") -> None:
        """Sequential composition: append the other ledger's charges."""
        for label, rounds in other.breakdown:
            self.add(label, rounds)

    def to_json(self) -> dict:
        return {
            "total": self.total_rounds,
            "breakdown": [{"label": l, "rounds": r} for l, r in self.breakdown],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RoundLedger":
        """The ledger `to_json` wrote. ValueError for a label that is not a
        string, for rounds or a total that are not an integer (a float or a
        bool), and for a total that is not the sum of the rounds."""
        led = cls()
        for entry in obj["breakdown"]:
            label, rounds = entry["label"], entry["rounds"]
            if type(label) is not str or type(rounds) is not int:
                raise ValueError(f"ledger entry {entry!r}: label must be a string, rounds an int")
            led.add(label, rounds)
        if type(obj["total"]) is not int or led.total_rounds != obj["total"]:
            raise ValueError(f"ledger total {obj['total']!r} is not the int sum of its breakdown")
        return led


def charge_bfs(ledger: RoundLedger, depth: int) -> None:
    """A BFS explored to depth `depth` costs exactly that many rounds."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ledger.add("bfs", depth)


def charge_steiner_aggregate(ledger: RoundLedger, depth: int, congestion: int) -> None:
    """Converge-cast plus broadcast over congested Steiner trees: R*L rounds."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if congestion < 1:
        raise ValueError("congestion must be >= 1")
    ledger.add("steiner-aggregate", depth * congestion)


def charge_leader_election(ledger: RoundLedger, depth: int) -> None:
    """Min-id / labeling machinery on a depth-d tree: exactly 3*d rounds."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ledger.add("leader-election", 3 * depth)


def merge_parallel(ledgers: list[RoundLedger]) -> RoundLedger:
    """Parallel composition over independent components: the max total wins.

    The merged breakdown is the argmax component's breakdown plus a zero-cost
    marker recording how many components ran simultaneously. Ties go to the
    earliest ledger so merging stays deterministic.
    """
    if not ledgers:
        raise ValueError("merge_parallel needs at least one ledger")
    best = max(range(len(ledgers)), key=lambda i: ledgers[i].total_rounds)
    # max() on a tie returns the first maximal index because range is ordered
    merged = RoundLedger()
    for label, rounds in ledgers[best].breakdown:
        merged.add(label, rounds)
    merged.add(f"parallel-over-{len(ledgers)}-components", 0)
    return merged
