"""Two-sided stable matching restricted to social circles on structured networks.

The package splits into four layers: ``netgen`` builds graphs, ``topology``
measures them, ``market`` holds preferences and the matching procedures, and
``harness`` drives seeded experiment sweeps (with a CLI in ``cli``).
"""

from .harness import (CellRun, ExperimentConfig, ExperimentResult, derive_seed,
                      fig2_config, fig36_config, results_to_csv, results_to_json,
                      run_cell, run_cell_full, summarize, sweep, table2_config)
from .market import (Market, Matching, average_utility, build_market, classical_gs,
                     find_blocking_pair, is_stable, matching_to_dict,
                     restricted_deferred_acceptance)
from .netgen import (MODELS, Graph, generate, generate_ba, generate_er, generate_ncn,
                     generate_ws, read_edge_list, write_edge_list)
from .topology import (UNREACHABLE, DistanceMatrix, SocialCircle, TopologyReport,
                       all_pairs_shortest, analyze, average_degree, average_path_length,
                       connectivity, degree_distribution, poisson_connectivity,
                       reachable_pairs)

__version__ = "0.1.0"
