import abnkit


def test_every_export_resolves():
    for name in abnkit.__all__:
        assert getattr(abnkit, name) is not None, name
