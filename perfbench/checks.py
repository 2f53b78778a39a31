"""Correctness checks applied to every benchmark run.

Each check returns a list of human-readable violations; an empty list
means the check passed.  The benchmark reports ``"correct": false`` and
exits non-zero if any check returns a violation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence


def strictly_increasing(values_by_client: Mapping[str, Sequence[int]]) -> List[str]:
    """Each client's successive values must strictly increase."""
    problems = []
    for client, values in values_by_client.items():
        for index in range(1, len(values)):
            if values[index] <= values[index - 1]:
                problems.append(
                    f"client {client}: value #{index} = {values[index]} "
                    f"does not exceed the previous {values[index - 1]}")
                break
    return problems


def never_decrease(values_by_client: Mapping[str, Sequence[int]]) -> List[str]:
    """No client's value may fall below the one before it."""
    problems = []
    for client, values in values_by_client.items():
        for index in range(1, len(values)):
            if values[index] < values[index - 1]:
                problems.append(
                    f"client {client}: value #{index} = {values[index]} "
                    f"is below the previous {values[index - 1]}")
                break
    return problems


def replicas_agree(served_by_replica: Mapping[str, Mapping]) -> List[str]:
    """Every op served by more than one replica got the same value on each."""
    problems = []
    seen: Dict = {}
    for replica, served in sorted(served_by_replica.items()):
        for op, value in served.items():
            first = seen.setdefault(op, (replica, value))
            if first[1] != value:
                problems.append(
                    f"op {op}: replica {first[0]} served {first[1]}, "
                    f"replica {replica} served {value}")
                if len(problems) >= 5:
                    return problems
    return problems


def replies_agree(replies: Iterable[Mapping[str, int]]) -> List[str]:
    """Each op's replies, keyed by replica, all carry one value."""
    problems = []
    for index, by_replica in enumerate(replies):
        if len(set(by_replica.values())) > 1:
            problems.append(f"op #{index}: replicas disagree {dict(by_replica)}")
            if len(problems) >= 5:
                break
    return problems


def values_were_served(values_by_client: Mapping[str, Sequence[int]],
                       served: set) -> List[str]:
    """Every value a client received is one the replicas served."""
    problems = []
    for client, values in values_by_client.items():
        for value in values:
            if value not in served:
                problems.append(
                    f"client {client}: received {value}, which no replica served")
                break
    return problems


def above_floors(observations: Iterable) -> List[str]:
    """Each ``(client, floor, value)``: a value must exceed the session
    floor (the client's highest earlier value) it was requested with."""
    problems = []
    for client, floor, value in observations:
        if floor is not None and value <= floor:
            problems.append(f"client {client}: received {value}, not above "
                            f"its session floor {floor}")
            if len(problems) >= 5:
                break
    return problems
