import radspec
from radspec import analysis, frobenius, spectrum


def test_all_names_resolve_and_match_module_lists():
    assert all(hasattr(radspec, name) for name in radspec.__all__)
    modules = analysis.__all__ + frobenius.__all__ + spectrum.__all__
    assert len(set(modules)) == len(modules)
    assert set(radspec.__all__) == set(modules)
