"""Per-hour primitive compositions that the fused tape nodes reproduce bitwise.

The program records one ``propagate`` node per layer and one
``aod_gradient`` node per loss.  The parity tests compare them against
the compositions here, which run the same arithmetic hour by hour through
small tape nodes: the primitives ``sparse_matmul``, ``div`` and ``sqrt``
that only these references use, plus the pgkrig.autodiff ops.

The graph builders take their operators straight from one CSR-ordered pair
list; the dense builders here go through an N x N weight matrix and COO
triples instead, and must give the same bytes.  The advection builder takes
its rates one wind component at a time; the reference sums a (T, E, 2)
array over its last axis.

Forward-only passes encode each node once and refine the encodings in hour
blocks; the grid reference runs one whole-window forward per chunk.

The conv kernel gradient is one einsum over a stack of delayed inputs; the
reference runs one einsum per tap over strided slices.

The testbed's integrator reads an edge-extended buffer, its cloud mask is a
numpy Gaussian over all hours at once, and the table writer formats each
distinct value once; the references here pad the state for every stencil,
smooth hour by hour through scipy.ndimage, and format every cell.
"""

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import gaussian_filter

from pgkrig import autodiff as ad
from pgkrig import graphs as g
from pgkrig import testbed as tb
from pgkrig import training as tr


def sparse_matmul(matrix, x) -> ad.Tensor:
    """Multiply a constant sparse N x N operator into dense node features.

    The sparse operator is data, not a parameter: gradients flow only to
    the dense side (transpose product).
    """
    x = ad.as_tensor(x)
    if x.ndim != 2 or matrix.shape[1] != x.shape[0]:
        raise ad.ShapeError(
            f"sparse_matmul: shapes {matrix.shape} and {x.shape} are incompatible")
    csr = matrix.tocsr()
    data = csr @ x.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(csr.T @ g)

    return ad._make(data, "sparse_matmul", (x,), backward)


def div(a, b) -> ad.Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    try:
        data = a.data / b.data
    except ValueError:
        raise ad.ShapeError(f"div: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(ad._unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(ad._unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return ad._make(data, "div", (a, b), backward)


def sqrt(x) -> ad.Tensor:
    x = ad.as_tensor(x)
    data = np.sqrt(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * 0.5 / np.sqrt(x.data))

    return ad._make(data, "sqrt", (x,), backward)


# -- convolution ---------------------------------------------------------


def per_tap_weight_grad(x, g, shifts):
    """A causal conv's (K, C_in, C_out) kernel gradient, one einsum per tap
    over the strided slices of x and g; a tap delayed past the series is 0."""
    t = x.shape[1]
    grad = np.zeros((len(shifts), x.shape[2], g.shape[2]))
    for tap, shift in enumerate(shifts):
        if shift < t:
            grad[tap] = np.einsum("ntc,ntf->cf", x[:, : t - shift, :], g[:, shift:, :])
    return grad


# -- propagation ---------------------------------------------------------


def stack_hours(steps):
    """Per-hour (N, F) tensors as one (N, T, F) tensor, the way the per-hour
    model stacked them: backward hands hour t's slice of the adjoint to step t."""
    data = np.stack([step.data for step in steps], axis=1)

    def backward(grad):
        for hour, step in enumerate(steps):
            if step.requires_grad:
                step._accumulate(grad[:, hour, :])

    return ad._make(data, "stack", steps, backward)


def hour_operator(advection, hour):
    """The N x N advection operator of one hour of a window's operator."""
    return g.AdvectionOperator(advection.rates[hour:hour + 1], advection.indices,
                               advection.indptr)


def per_hour_layer(x, diffusion, advection, weights, bias, activation):
    """One propagation layer at one hour, as primitive ops on (N, F) features."""
    diff_msg = sparse_matmul(diffusion.weights, x)
    adv_msg = sparse_matmul(advection.weights, x)
    if len(weights) == 2:
        mixed = ad.add(ad.matmul(diff_msg, weights[0]), ad.matmul(adv_msg, weights[1]))
    else:
        mixed = ad.matmul(ad.add(diff_msg, adv_msg), weights[0])
    pre = ad.add(mixed, bias)
    return ad.relu(pre) if activation == "relu" else ad.softplus(pre)


def per_hour_propagation(x, diffusion, advection, layers, activation):
    """The propagation stack run hour after hour on (N, T, F) x, then stacked.

    ``layers`` holds one (weights, bias) pair per layer.  Hour t takes its
    slice of x and runs every layer on ``hour_operator(advection, t)``.
    """
    steps = []
    for hour in range(x.shape[1]):
        h = ad.take(x, (slice(None), hour, slice(None)))
        operator = hour_operator(advection, hour)
        for weights, bias in layers:
            h = per_hour_layer(h, diffusion, operator, weights, bias, activation)
        steps.append(h)
    return stack_hours(steps)


def per_hour_forward(model, series, diffusion, advection):
    """full_forward as the per-hour loop ran it: hour t's slice of the encoder
    output goes through every layer on hour_operator(advection, t), and the
    hours are stacked before the readout."""
    h0 = model.encode(series)
    x_init = model.init_readout(h0)
    names = (("weight_diff", "weight_adv") if model.config.two_weight_propagation
             else ("weight",))
    layers = [(tuple(model.params[f"prop.{layer}.{name}"] for name in names),
               model.params[f"prop.{layer}.bias"])
              for layer in range(model.config.gnn_layers)]
    h = per_hour_propagation(h0, diffusion, advection, layers, model.config.activation)
    return x_init, model.readout(h)


# -- AOD gradient loss ---------------------------------------------------


def _standardize_on_tape(column, mask):
    count = float(mask.sum())
    mean = ad.tensor_sum(ad.mul(column, mask)) * (1.0 / count)
    centered = ad.sub(column, mean)
    var = ad.tensor_sum(ad.mul(ad.mul(centered, centered), mask)) * (1.0 / count)
    std = sqrt(var)
    if float(std.data) < 1e-6:
        return centered
    return div(centered, std)


def _standardize_constant(values, mask):
    count = mask.sum()
    mean = (values * mask).sum() / count
    std = np.sqrt(((values - mean) ** 2 * mask).sum() / count)
    if std < 1e-6:
        std = 1.0
    return (values - mean) / std


def reference_aod_loss(x_hat, aod_values, aod_valid, edges):
    """The per-hour primitive composition the fused loss reproduces bitwise."""
    src, dst = edges[:, 0], edges[:, 1]
    total = None
    for step in range(x_hat.shape[1]):
        mask = aod_valid[:, step]
        if mask.sum() == 0:
            continue
        edge_mask = mask[src] * mask[dst]
        if edge_mask.sum() == 0:
            continue
        pred_std = _standardize_on_tape(x_hat[:, step], mask)
        proxy_std = _standardize_constant(aod_values[:, step], mask)
        pred_diff = ad.sub(pred_std[dst], pred_std[src])
        proxy_diff = proxy_std[dst] - proxy_std[src]
        terms = ad.mul(ad.absolute(ad.sub(pred_diff, proxy_diff)), edge_mask)
        step_sum = ad.tensor_sum(terms)
        total = step_sum if total is None else ad.add(total, step_sum)
    return total if total is not None else ad.Tensor(0.0)


# -- graph builders ------------------------------------------------------


def _dense_mask(nodes, threshold_xi):
    if not threshold_xi > 0:
        raise g.GraphBuildError(f"threshold_xi must be positive, got {threshold_xi}")
    dist = g.planar_distances(nodes.positions)
    mask = dist < threshold_xi
    np.fill_diagonal(mask, False)
    return dist, mask


def dense_geo_adjacency(nodes, threshold_xi):
    """The geo adjacency through a dense weight matrix and `csr_matrix(dense)`."""
    dist, mask = _dense_mask(nodes, threshold_xi)
    iu, ju = np.triu_indices(nodes.n, k=1)
    edge_d = dist[iu, ju][mask[iu, ju]]
    sigma_sq = 1.0  # with no pair the weights are all zero
    if edge_d.size:
        sigma_sq = float(np.var(edge_d))
        if sigma_sq == 0.0:
            sigma_sq = float(np.mean(edge_d * edge_d))
        if sigma_sq == 0.0:
            sigma_sq = 1.0
    weights = np.where(mask, np.exp(-(dist * dist) / sigma_sq), 0.0)
    weights[weights < np.finfo(float).tiny] = 0.0
    return g.GeoAdjacency(weights=sp.csr_matrix(weights), sigma_sq=sigma_sq)


def coo_diffusion_operator(geo):
    """D^(-1/2) A D^(-1/2) scaled on the COO triples and converted back to CSR."""
    coo = geo.weights.tocoo()
    n = coo.shape[0]
    deg = np.asarray(geo.weights.sum(axis=1)).reshape(-1)
    inv_sqrt = np.zeros(n)
    positive = deg > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(deg[positive])
    data = coo.data * (inv_sqrt[coo.row] * inv_sqrt[coo.col])
    return g.DiffusionOperator(weights=sp.csr_matrix((data, (coo.row, coo.col)), shape=(n, n)))


def coo_edges(geo):
    """Each undirected pair once, i < j, read from the COO triples."""
    coo = geo.weights.tocoo()
    keep = coo.row < coo.col
    return np.stack([coo.row[keep], coo.col[keep]], axis=1)


def pair_axis_rates(wind_series, rows, cols, geom):
    """(T, E) advection rates from one (T, E, 2) array summed over its last axis.

    The builder takes one wind component at a time instead; both add the
    u and v terms of each rate in the same order.
    """
    wind_mid = wind_series[:, rows]
    wind_mid += wind_series[:, cols]
    wind_mid *= 0.5
    wind_mid *= geom
    return np.ascontiguousarray(3.6 * np.maximum(wind_mid.sum(axis=2), 0.0))


def dense_advection_sequence(nodes, wind_series, threshold_xi):
    """The advection operator with its pairs taken from a dense mask."""
    dist, mask = _dense_mask(nodes, threshold_xi)
    rows, cols = np.nonzero(mask)
    d = dist[rows, cols]
    if np.any(d == 0.0):
        k = int(np.argmax(d == 0.0))
        raise g.GraphBuildError(
            f"nodes {cols[k]} and {rows[k]} are coincident: advection direction undefined")
    geom = (nodes.positions[rows] - nodes.positions[cols]) / (d * d)[:, None]
    rates = pair_axis_rates(wind_series, rows, cols, geom)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nodes.n))])
    return g.AdvectionOperator(rates=rates, indices=cols, indptr=indptr)


# -- grid inference ------------------------------------------------------


def chunked_predict_grid(model, normalization, dataset, grid_positions, grid_wind,
                         grid_emissions, threshold_km):
    """`training.infer_grid` as one whole-window `predict` per pass.

    Each pass concatenates the stations' and the chunk's inputs, encodes
    them all and runs `full_forward` over every hour at once, initial
    readout included.  The chunking and the shuffle are the program's.
    """
    model = model.detached()
    t_hours, n_stations = dataset.t_hours, dataset.n
    station_lookup = {pos.tobytes(): k for k, pos in enumerate(dataset.nodes.positions)}
    node_of_cell = np.array([station_lookup.get(pos.tobytes(), -1) for pos in grid_positions],
                            dtype=np.int64)
    coincident = node_of_cell >= 0
    out = np.empty((t_hours, grid_positions.shape[0]))
    if np.any(coincident):
        _, x_hat = tr.predict(model, normalization, tr.Graph.build(dataset.nodes, threshold_km),
                              dataset.wind, dataset.emissions, dataset.pm25, [])
        out[:, coincident] = x_hat.data.T[:, node_of_cell[coincident]]
    free = np.nonzero(~coincident)[0]
    free = free[np.lexsort((grid_positions[free, 0], grid_positions[free, 1]))]
    chunk = max(1, n_stations)
    order = np.random.default_rng(0).permutation(free.size)
    for start in range(0, free.size, chunk):
        cells = free[order[start:start + chunk]]
        nodes = g.NodeSet(np.concatenate([dataset.nodes.positions, grid_positions[cells]]))
        wind = np.concatenate([dataset.wind, grid_wind[:, cells]], axis=1)
        emissions = np.concatenate([dataset.emissions, grid_emissions[:, cells]], axis=1)
        pm25 = np.zeros((t_hours, nodes.n))
        pm25[:, :n_stations] = dataset.pm25
        _, x_hat = tr.predict(model, normalization, tr.Graph.build(nodes, threshold_km),
                              wind, emissions, pm25, np.arange(n_stations, nodes.n))
        out[:, cells] = x_hat.data[n_stations:, :].T
    return out


# -- testbed -------------------------------------------------------------


def padded_laplacian(c, dx):
    """Mirror-padded 5-point Laplacian: zero flux across domain edges."""
    p = np.pad(c, 1, mode="edge")
    return (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * c) / (dx * dx)


def padded_advection_divergence(c, u_kmh, v_kmh, dx, closed):
    """-div(v C) by upwind face fluxes on zero-gradient padded copies of c."""
    div = np.zeros_like(c)
    if u_kmh != 0.0:
        p = np.pad(c, ((0, 0), (1, 1)), mode="edge")
        flux = u_kmh * (p[:, :-1] if u_kmh > 0 else p[:, 1:])
        if closed:
            flux[:, 0] = 0.0
            flux[:, -1] = 0.0
        div += (flux[:, :-1] - flux[:, 1:]) / dx
    if v_kmh != 0.0:
        p = np.pad(c, ((1, 1), (0, 0)), mode="edge")
        flux = v_kmh * (p[:-1, :] if v_kmh > 0 else p[1:, :])
        if closed:
            flux[0, :] = 0.0
            flux[-1, :] = 0.0
        div += (flux[:-1, :] - flux[1:, :]) / dx
    return div


def padded_substep(c, spec, dt, u_kmh, v_kmh, emit):
    """One Euler step of the state c, with three padded copies of it."""
    rate = (spec.kappa_km2_h * padded_laplacian(c, spec.cell_km)
            + padded_advection_divergence(c, u_kmh, v_kmh, spec.cell_km,
                                          spec.boundary == "closed")
            + emit - spec.decay_per_h * c)
    return c + dt * rate


def per_hour_make_aod(truth, corruption, seed):
    """The proxy with one ndimage-smoothed noise draw and quantile per hour."""
    rng = np.random.default_rng(seed)
    t, n = truth.concentrations.shape
    values = corruption.gain_a * truth.concentrations + corruption.offset_b
    if corruption.invert:
        per_t_max = values.max(axis=1, keepdims=True)
        per_t_min = values.min(axis=1, keepdims=True)
        values = per_t_max + per_t_min - values
    valid = np.ones((t, n))
    cf = corruption.cloud_fraction
    if cf >= 1.0:
        valid[:] = 0.0
    elif cf > 0.0:
        for step in range(t):
            noise = rng.standard_normal((truth.ny, truth.nx))
            smooth = gaussian_filter(noise, sigma=2.0, mode="reflect")
            cut = np.quantile(smooth, cf)
            valid[step] = (smooth >= cut).ravel().astype(np.float64)
    return tb.AodField(values=values, valid=valid)


# -- table writer --------------------------------------------------------


def repr_table_text(head, columns):
    """Table text with every cell formatted on its own: repr, or "" for None."""
    def cells(column):
        values = np.asarray(column)
        if values.dtype == object:
            return ["" if v is None else repr(float(v)) for v in values.tolist()]
        return list(map(repr, values.tolist()))

    return "\n".join([*head, *map(",".join, zip(*map(cells, columns)))]) + "\n"
