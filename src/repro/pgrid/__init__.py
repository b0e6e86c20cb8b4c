"""P-Grid structured overlay (paper ref. [1], §2).

The DHT layer of UniStore: a virtual binary trie whose leaves are peers,
prefix routing with logarithmic guarantees, an order/prefix-preserving hash
function (so range and substring queries are native), structural replication,
storage-threshold load balancing, loosely-consistent updates, and overlay
merging.
"""

from repro.pgrid.construction import (
    balanced_paths,
    bootstrap_exchange,
    build_network,
    bulk_load,
    data_split_paths,
    wire_routing_tables,
)
from repro.pgrid.datastore import DataStore, Entry
from repro.pgrid.hashing import (
    KEY_SEPARATOR,
    after_key,
    encode_number,
    encode_string,
    encode_value,
    string_prefix_key,
)
from repro.pgrid.keys import (
    KeyRange,
    common_prefix_length,
    compare_keys,
    flip,
    increment_path,
    is_complete_partition,
    is_prefix_free,
    key_fraction,
    responsible,
)
from repro.pgrid.load_balancing import load_imbalance, rebalance, split_group
from repro.pgrid.merge import join_peer, merge_overlays
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer, RoutingTable
from repro.pgrid.range_query import range_query_sequential, range_query_shower
from repro.pgrid.replication import (
    ensure_replication,
    min_replication,
    online_coverage,
    replication_factor,
)
from repro.pgrid.routing import (
    RouteCache,
    point_key,
    route,
    route_hops,
)
from repro.pgrid.updates import anti_entropy_round, staleness, sync_pair

__all__ = [
    "PGridNetwork",
    "PGridPeer",
    "RoutingTable",
    "DataStore",
    "Entry",
    "KeyRange",
    "build_network",
    "bulk_load",
    "bootstrap_exchange",
    "wire_routing_tables",
    "balanced_paths",
    "data_split_paths",
    "route",
    "route_hops",
    "point_key",
    "RouteCache",
    "range_query_shower",
    "range_query_sequential",
    "rebalance",
    "split_group",
    "load_imbalance",
    "join_peer",
    "merge_overlays",
    "ensure_replication",
    "replication_factor",
    "min_replication",
    "online_coverage",
    "anti_entropy_round",
    "sync_pair",
    "staleness",
    "encode_string",
    "encode_number",
    "encode_value",
    "after_key",
    "string_prefix_key",
    "KEY_SEPARATOR",
    "responsible",
    "compare_keys",
    "common_prefix_length",
    "flip",
    "increment_path",
    "key_fraction",
    "is_prefix_free",
    "is_complete_partition",
]
