"""Information geometry of sampled dynamical systems."""

from .simplex import (
    fisher_information,
    require_interior,
    self_information_rate,
    shahshahani_distance_sq,
)
from .dynamics import (
    SirParams,
    Trajectory,
    default_sir_params,
    grouped_sir_params,
    solve_sir,
)
from .sampling import (
    MonteCarloEstimate,
    cluster_info_rate_hat,
    fisher_hat,
    info_rate_hat,
    monte_carlo_components,
)
from .clustering import (
    Clustering,
    clustered_fisher,
    delta_g_prob_form,
    elbow_select,
    kmeans,
    kmeans_features,
    lloyd,
    principal_scores,
)
from .theory import (
    distance_moments,
    exact_static_fisher_mean,
    fisher_bias,
    fisher_bias_second_order,
    fisher_prediction,
    info_rate_moments,
)
from .filtering import filter_probs, gaussian_kernel

__all__ = [name for name in dir() if not name.startswith("_")]
