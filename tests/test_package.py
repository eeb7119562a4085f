import types

import mixtt


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, obj in vars(mixtt).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert sorted(mixtt.__all__) == sorted(public)


def test_all_names_resolve():
    for name in mixtt.__all__:
        assert getattr(mixtt, name, None) is not None, name
