"""Pseudo-label-guided batch construction for contrastive training.

Pipeline: a denoising autoencoder learns latents for the unlabeled
images, k-means turns those into pseudo labels, and mini-batches for
NT-Xent contrastive training are stratified by pseudo label so
same-cluster images rarely collide as negatives. Frozen linear probes
and 10%-label fine-tuning measure the learned representations against
a random-batching baseline.
"""
