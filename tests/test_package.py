import recourse_lab as rl


def test_exports_resolve_once():
    assert len(rl.__all__) == len(set(rl.__all__))
    missing = [name for name in rl.__all__ if not hasattr(rl, name)]
    assert missing == []
