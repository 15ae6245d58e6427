"""Two-stage impulsive-noise mitigation for coded OFDM.

A small feed-forward network scores every received time-domain sample from
three local features (magnitude, rank-ordered absolute-difference statistic,
median deviation); flagged samples are blanked or clipped before OFDM
demodulation.  The package also provides the memoryless threshold baselines,
three impulsive-noise generators (Bernoulli-Gaussian, Middleton Class A,
symmetric alpha-stable), a rate-1/2 convolutionally coded QPSK/OFDM link,
and a paired Monte Carlo BER harness.
"""

__version__ = "0.1.0"
