"""RIS-assisted OFDM radar interference mitigation toolkit.

Names are imported from their module (`risradar.arrays.steering`,
`risradar.experiments.run_interference_sweep`); the package root
re-exports nothing.
"""

__version__ = "0.1.0"
