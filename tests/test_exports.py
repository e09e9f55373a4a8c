"""The package's export list: ``from soze_sim import *`` binds exactly
``__all__``, and every name the package itself binds is listed there."""

from types import ModuleType

import soze_sim


def test_star_import_binds_exactly_all():
    names: dict = {}
    exec("from soze_sim import *", names)
    names.pop("__builtins__")
    assert sorted(names) == sorted(soze_sim.__all__)
    assert len(set(soze_sim.__all__)) == len(soze_sim.__all__)
    for name in soze_sim.__all__:
        assert names[name] is getattr(soze_sim, name)


def test_all_lists_every_public_name():
    public = {name for name, value in vars(soze_sim).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(soze_sim.__all__)
