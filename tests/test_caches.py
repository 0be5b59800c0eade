"""`octachar.clear_caches` empties every cache the library keeps.

The caches are found by looking for `cache_clear` on the attributes of every
`octachar` module, so a cache added later and left out of `clear_caches` fails
here.  Each cache is filled first, so an empty cache cannot pass by accident.
Every cache has a finite `maxsize`, so memo memory stays bounded.
"""

import importlib
import pkgutil
from fractions import Fraction

import octachar
from octachar import verify_frobenius
from octachar.partitions import Partition


def _library_caches():
    caches = {}
    for info in pkgutil.iter_modules(octachar.__path__):
        module = importlib.import_module("octachar." + info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                caches[id(value)] = ("%s.%s" % (info.name, name), value)
    return sorted(caches.values(), key=lambda item: item[0])


def test_caches_are_found():
    names = {name for name, _ in _library_caches()}
    assert names == {"symfunc._point"}  # a new cache must join this set on purpose


def test_caches_are_bounded():
    assert [name for name, cache in _library_caches() if cache.cache_parameters()["maxsize"] is None] == []


def test_clear_caches_empties_every_cache():
    caches = _library_caches()
    verify_frobenius(Partition([2, 1]), [Fraction(1), Fraction(2), Fraction(3)])
    assert [name for name, cache in caches if cache.cache_info().currsize == 0] == []
    octachar.clear_caches()
    assert [name for name, cache in caches if cache.cache_info().currsize > 0] == []
