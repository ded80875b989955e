//! Lock-order fixture for L13: two mutexes taken in both orders by two
//! methods; each nested acquisition is a held-while-acquiring pair.

use std::sync::Mutex;

pub struct Pair {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Pair {
    pub fn forward(&self) -> u32 {
        let a = self.alpha.lock().expect("alpha");
        let b = self.beta.lock().expect("beta");
        *a + *b
    }

    pub fn backward(&self) -> u32 {
        let b = self.beta.lock().expect("beta");
        let a = self.alpha.lock().expect("alpha");
        *a - *b
    }

    pub fn consistent(&self) -> u32 {
        let a = self.alpha.lock().expect("alpha");
        let b = self.beta.lock().expect("beta");
        *a * *b
    }
}
