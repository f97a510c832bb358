"""paprlab: simulation lab for low-PAPR OFDM waveform design.

An end-to-end OFDM chain with a RAPP power amplifier, a trainable
convolutional autoencoder transmitter/receiver, classical
clipping-and-filtering and selective-mapping baselines, and the metrics
(PAPR, CCDF, PSD, ACPR, OBO, BER) to compare them.
"""
