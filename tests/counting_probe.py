"""Probes that count the == tests or hashes a check makes on them."""


class CountingProbe:
    """A number equal to ``value`` that counts the == tests made on it."""

    def __init__(self, value):
        self.value = value
        self.eq_calls = 0

    def __eq__(self, other):
        self.eq_calls += 1
        return self.value == other

    def __hash__(self):
        return hash(self.value)

    def __le__(self, other):
        return self.value <= other

    def __ge__(self, other):
        return self.value >= other

    def __trunc__(self):
        return self.value


class HashOnlyProbe(CountingProbe):
    """A probe that does not order against int."""

    __le__ = __ge__ = object.__le__


class HashCountingInt(int):
    """An int that counts, on its class, the hashes taken of its instances."""

    hashes = 0

    def __hash__(self):
        HashCountingInt.hashes += 1
        return int.__hash__(self)
