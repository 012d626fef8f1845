"""IPv6 address and prefix machinery.

This subpackage provides the low-level address substrate that the rest of the
library is built on:

* :mod:`repro.addr.address` -- a lightweight 128-bit IPv6 address wrapper with
  nybble access, interface-identifier helpers and SLAAC/EUI-64 detection.
* :mod:`repro.addr.prefix` -- IPv6 prefixes (network + length), containment,
  subnetting and enumeration helpers.
* :mod:`repro.addr.trie` -- scalar longest-prefix matching over one hash
  table per stored prefix length, used for aliased-prefix filtering and BGP
  lookups.
* :mod:`repro.addr.generate` -- pseudo-random address generation inside a
  prefix and the nybble fan-out target generation used by aliased prefix
  detection (Table 3 of the paper).
* :mod:`repro.addr.batch` -- columnar address batches (numpy ``uint64`` hi/lo
  pairs) with bulk nybble/prefix/EUI-64 operations, flattened longest-prefix
  matching and vectorised fan-out generation: the substrate of the batch
  probing engine.
* :mod:`repro.addr.asnum` -- autonomous-system number helpers.
"""

from repro.addr.address import (
    IPv6Address,
    NYBBLES,
    hamming_weight,
    iid_hamming_weight,
    is_slaac_eui64,
    nybbles_of,
    parse_address,
)
from repro.addr.prefix import IPv6Prefix, parse_prefix
from repro.addr.trie import PrefixTrie
from repro.addr.generate import (
    fanout_targets,
    random_address_in_prefix,
    random_addresses_in_prefix,
)
from repro.addr.asnum import ASN
from repro.addr.batch import (
    AddressBatch,
    FlatLPM,
    batch_fanout_targets,
    random_batch_in_prefix,
)

__all__ = [
    "IPv6Address",
    "IPv6Prefix",
    "PrefixTrie",
    "AddressBatch",
    "FlatLPM",
    "ASN",
    "NYBBLES",
    "parse_address",
    "parse_prefix",
    "nybbles_of",
    "hamming_weight",
    "iid_hamming_weight",
    "is_slaac_eui64",
    "fanout_targets",
    "random_address_in_prefix",
    "random_addresses_in_prefix",
    "batch_fanout_targets",
    "random_batch_in_prefix",
]
