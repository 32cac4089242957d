import types

import multiserial


def test_all_lists_exactly_the_public_names_the_package_binds():
    # submodules are bound once imported, so they are not part of the list
    bound = {
        name
        for name, value in vars(multiserial).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(multiserial.__all__) == sorted(bound)
    assert len(set(multiserial.__all__)) == len(multiserial.__all__)
