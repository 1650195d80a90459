from bench.spans import Span, Tracer, install


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_subtracts_every_child_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(30)

    def middle():
        clock.advance(5)
        leaf()
        clock.advance(7)
        leaf()

    def outer():
        clock.advance(100)
        middle()
        clock.advance(1)

    leaf = tracer.wrap(leaf, Span("leaf", "", ""))
    middle = tracer.wrap(middle, Span("middle", "", ""))
    outer = tracer.wrap(outer, Span("outer", "", ""))
    tracer.op = "op-1"
    outer()
    outer()

    assert tracer.calls("leaf") == 4
    assert tracer.total_ns("leaf") == tracer.self_ns("leaf") == 120
    assert tracer.total_ns("middle") == 2 * 72
    assert tracer.self_ns("middle") == 2 * 12
    assert tracer.total_ns("outer") == 2 * 173
    assert tracer.self_ns("outer") == 2 * 101
    # only the outer span is a root, so it alone covers the wall
    assert tracer.root_total_ns() == 2 * 173
    assert tracer.aggregates[("leaf", "middle")][:3] == [4, 120, 120]
    # children inherit the op of the root span they ran under
    assert {s["op"] for s in tracer.samples["leaf"]} == {"op-1"}


def test_exceptions_still_close_the_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(9)
        raise ValueError

    boom = tracer.wrap(boom, Span("boom", "", ""))
    try:
        boom()
    except ValueError:
        pass
    assert tracer.stack == []
    assert tracer.total_ns("boom") == 9


def test_sample_is_bounded_and_units_are_counted():
    tracer = Tracer(sample_cap=3)
    fn = tracer.wrap(lambda rows: None, Span("rows", "", "", units_of=lambda a: len(a[0])))
    for _ in range(5):
        fn([1, 2])
    assert len(tracer.samples["rows"]) == 3
    assert tracer.calls("rows") == 5
    assert tracer.units("rows") == 10


def test_a_vanished_wrap_site_is_reported_missing():
    tracer = Tracer()
    missing = install(
        tracer,
        [
            Span("gone.attr", "json", "no_such_function"),
            Span("gone.module", "no_such_module_here", "f"),
        ],
    )
    assert missing == ["gone.attr", "gone.module"]


def test_export_round_trip():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    fn = tracer.wrap(lambda: clock.advance(4), Span("x", "", ""))
    fn()
    copy = Tracer.from_export(tracer.export())
    assert copy.total_ns("x") == 4
    assert copy.calls("x") == 1
