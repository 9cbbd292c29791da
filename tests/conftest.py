from infodyn import dynamics as dyn


def index_at(traj, t: float) -> int:
    """Row of the grid time t on the trajectory's model grid, by the rule of
    dyn.grid_index that the runner uses."""
    return dyn.grid_index(t, traj.step, traj.times.size - 1)
