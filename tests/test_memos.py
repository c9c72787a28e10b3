"""Every process-wide memo in onhs is a functools.lru_cache capped at
handles.CACHE_CAP.

Each memo is keyed on input from outside the process (answers, updates,
KEY records), so one without a cap would let any client or server fill
it. A memo added later is found here by its cache_info().
"""

import importlib
import pkgutil

import onhs
from onhs import client, codec, server
from onhs.handles import CACHE_CAP


def module_memos():
    """(qualified name, memo) for every lru_cache wrapper at module level
    of an onhs module, each memo once under the first name found."""
    found = {}
    for info in pkgutil.iter_modules(onhs.__path__):
        module = importlib.import_module(f"onhs.{info.name}")
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                found.setdefault(id(value), (f"{module.__name__}.{attr}", value))
    return list(found.values())


def test_every_module_memo_is_capped():
    memos = module_memos()
    assert memos
    for name, memo in memos:
        assert memo.cache_info().maxsize == CACHE_CAP, name


def test_the_three_memos_are_found():
    found = {id(memo) for _, memo in module_memos()}
    for memo in (codec.received_sets, server.bound_apex_keys, client.verified_signatures):
        assert id(memo) in found
