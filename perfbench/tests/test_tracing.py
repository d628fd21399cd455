import pytest

from tracing import Tracer


def test_untraced_wrap_is_the_function_itself():
    def parse(text):
        return text

    assert Tracer(False).wrap("parse", parse) is parse


def test_spans_record_cause_operation_and_failure():
    tracer = Tracer(True)
    layout = tracer.wrap("layout", lambda text: text.upper())

    def _parse(text):
        if text == "BAD":
            raise ValueError(text)
        return layout(text)

    parse = tracer.wrap("parse", _parse)
    with tracer.op("op", 7):
        parse("ok")
    with tracer.op("op", 8):
        with pytest.raises(ValueError):
            parse("BAD")
    spans = {(name, op): (span, parent, raised) for span, name, _, _, parent, op, raised in tracer.spans}
    op7, parse7, layout7 = spans[("op", 7)], spans[("parse", 7)], spans[("layout", 7)]
    assert parse7[1] == op7[0] and layout7[1] == parse7[0]
    assert spans[("parse", 8)][2] is True and spans[("parse", 8)][1] == spans[("op", 8)][0]
    assert len(tracer.durations("parse", raised=False)) == 1
    assert len(tracer.durations("parse", raised=True)) == 1
    for _, _, start, end, _, _, _ in tracer.spans:
        assert end >= start
