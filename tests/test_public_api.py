import samplets


def test_every_public_name_resolves():
    for name in samplets.__all__:
        assert getattr(samplets, name, None) is not None, name
    assert len(set(samplets.__all__)) == len(samplets.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from samplets import *", namespace)
    assert set(samplets.__all__) <= set(namespace)
