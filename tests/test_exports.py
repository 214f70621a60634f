import irgaze


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from irgaze import *", namespace)  # raises on a name that is gone
    assert set(irgaze.__all__) <= set(namespace)
    assert len(set(irgaze.__all__)) == len(irgaze.__all__)
