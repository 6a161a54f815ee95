"""The one rule for a scalar integer input: exactly an ``int``, within bounds."""


def exact_int(value: object, name: str, low: int | None = 0, high: int | None = None) -> int:
    """``value`` if it is exactly an ``int`` in ``low..high``, a bound of None
    open; else ValueError: ``"<name> must be an int, not <value!r>"``,
    ``"<name> must be <bounds>, not <value>"``, or, when ``high < low``,
    ``"<name> cannot be <value>: no value is valid"``.

    A bool or a float equal to an int is not one. Every scalar count, id,
    cap and seed of the package goes through here. Checks over many
    elements keep their own loops, because they are hot or name the bad
    element: ``multigraph._check_edge_ids`` and ``MultiGraph``'s endpoints,
    ``KPartition``'s colors, ``kpartition._entry_error`` and
    ``_first_error``, ``KPartition.edges_of_color``'s fast path,
    ``oracle.verify_packing``'s ids, ``Partition``'s labels and
    ``Partition.from_classes``, and the result document's trees and classes.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")
    if low is not None and value < low or high is not None and value > high:
        if low is not None and high is not None and high < low:
            raise ValueError(f"{name} cannot be {value}: no value is valid")
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bounds}, not {value}")
    return value
