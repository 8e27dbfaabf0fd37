//! Minimal offline stand-in for the `parking_lot` crate: non-poisoning
//! wrappers over `std::sync`. API-compatible with the subset the
//! workspace uses (Mutex/RwLock + guards).

pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    pub fn new(t: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(t))
    }
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<'a, T: ?Sized> std::ops::Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}
impl<'a, T: ?Sized> std::ops::DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub fn new(t: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(t))
    }
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(RwLockReadGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockReadGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(RwLockWriteGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockWriteGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<'a, T: ?Sized> std::ops::Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}
impl<'a, T: ?Sized> std::ops::Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}
impl<'a, T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.0, f)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.0, f)
    }
}
