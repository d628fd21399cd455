from repro import GNode
from repro.locations import Location

from reference import digest


def test_digest_ignores_locations_and_sequence_type():
    plain = GNode("Call", ("f", [GNode("Name", ("x",))]))
    located = GNode("Call", ("f", (GNode("Name", ("x",), Location("<a>", 3, 4)),)), Location("<a>", 1, 1))
    assert digest(plain) == digest(located)


def test_digest_sees_names_leaves_and_shape():
    base = GNode("Call", ("f", [GNode("Name", ("x",))]))
    assert digest(base) != digest(GNode("Call", ("g", [GNode("Name", ("x",))])))
    assert digest(base) != digest(GNode("Call", ("f", [GNode("Attr", ("x",))])))
    assert digest(base) != digest(GNode("Call", ("f", [GNode("Name", ("x",)), None])))
    assert digest(["ab", "c"]) != digest(["a", "bc"])
