"""Software-defined MFSK modem workbench.

Synthesizes JT65A-style 64-tone weak signals over a calibrated AWGN
channel, demodulates them with a classical non-coherent detector and a
from-scratch convolutional neural network, and measures symbol/bit error
rates against the closed-form limit for non-coherent orthogonal MFSK.

Submodules (import what you need; the package root imports nothing, so
a caller can set the BLAS thread environment variables before the first
submodule loads numpy):

- ``mfskmodem.signal``    tone plan, symbol synthesis, AWGN channel
- ``mfskmodem.analysis``  energy spectra, autocorrelation, classical demod
- ``mfskmodem.theory``    closed-form error-rate limits and SNR conversions
- ``mfskmodem.nn``        the CNN demodulator (model, training, weights I/O)
- ``mfskmodem.dataset``   reproducible labeled-symbol dataset generation and files
- ``mfskmodem.evaluate``  confusion-matrix metrics, SER/BER sweeps, latency bench
- ``mfskmodem.profiles``  named modem/model profiles and the profile config file
- ``mfskmodem.cli``       command-line entry point
"""

__version__ = "0.1.0"
