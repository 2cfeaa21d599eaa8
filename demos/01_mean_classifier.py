"""The kernel mean classifier on two Gaussian blobs.

Fits sign((1/n) sum_i y_i K(x_i, x)) and reads off the closed-form
geometry: the mean-embedding norm ||omega_S|| and the attainable minimum
linear loss 1 - ||omega_S||.  No optimization happens anywhere; the
classifier is the data average in feature space.

Run: python3 demos/01_mean_classifier.py
"""

import numpy as np

from meanherd import KernelSpec, fit, mean_norm, mmd, select_kernel, synth_blobs

train = synth_blobs(n=2000, d=2, separation=4.0, seed=0)
test = synth_blobs(n=1000, d=2, separation=4.0, seed=1)
kernel = KernelSpec("gaussian", bandwidth=1.0)

clf = fit(train, kernel)
acc = np.mean(test.labels * clf.scores(test.instances) > 0)
print(f"test accuracy of the mean classifier: {acc:.4f}")

norm = mean_norm(train, kernel)
print(f"||omega_S|| = {norm:.4f}")
print(f"minimum attainable linear loss 1 - ||omega_S|| = {1 - norm:.4f}")

# MMD between the two classes is the same geometry seen as a two-sample
# statistic: for a balanced sample it equals ||omega_S|| exactly.
value = mmd(train.instances[train.labels == 1], train.instances[train.labels == -1], kernel)
print(f"MMD between the class clouds: {value:.4f}")

# Kernel selection = pick the feature space where the mean is longest.
menu = [KernelSpec("gaussian", bandwidth=h) for h in (0.25, 0.5, 1.0, 2.0, 4.0)]
sel = select_kernel(train, menu)
print(f"best bandwidth on the menu: {menu[sel.index].bandwidth}")
print("menu min linear losses:", [round(v, 4) for v in sel.min_losses])
