import divconv


def test_star_import_resolves_every_export():
    namespace: dict = {}
    exec("from divconv import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(divconv.__all__)
    for name in divconv.__all__:
        assert getattr(divconv, name) is namespace[name]

