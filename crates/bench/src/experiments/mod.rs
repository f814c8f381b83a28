//! One module per paper table/figure; each exposes `run()` returning
//! structured rows and `print()` for the `all_experiments` driver.

pub mod ablation;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod table1;
pub mod table3;
pub mod table4;
