pub use cps_apps as apps;
pub use cps_control as control;
pub use cps_core as core;
pub use cps_linalg as linalg;
pub use cps_map as map;
pub use cps_sched as sched;
pub use cps_verify as verify;
